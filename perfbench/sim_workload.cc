// The three simulator workloads: paper-default, scale-64k, pressure-arq.
//
// A workload is a list of cases: (configuration, run index) pairs. The
// configurations differ only in their seed, all derived from --seed, so a
// workload averages over several independent deployments and data sets.
// A pressure seed whose SOM placement is disconnected at the radio range
// cannot be simulated (BuildScenario refuses it); such seeds are skipped,
// the same way ConnectedPlacement redraws a disconnected placement.
//
// Set-up fills a fresh ScenarioCache for every case (the "time to the
// first measured round"), several times, keeping the last cache. The
// measured phase then runs iterations until the time is up. An iteration
// runs a batch of cases one after another (all of them, unless the
// workload sets a smaller batch; batches take the cases in turn, and a
// pass covers every case once), each with: BuildScenario (a cache hit),
// MaterializeValues, MaterializeSortedSensors, and one RunSimulation per
// protocol with the oracle check on. A case replays identical inputs every time it runs, so
// its simulated results must equal those of its run in the first pass bit
// for bit. After the measured phase, the first case is replayed once more
// on the other thread arrangement (serial if the workload runs wave
// threads, on a subtree-parallel wave pool if it runs serially); its
// results must also be bit-identical.
//
// Iterations and protocol replays record both wall and process CPU time.
// Only one case runs at a time, so the process CPU time spent in a replay
// is that replay's, wave threads included.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "core/config.h"
#include "core/scenario.h"
#include "core/scenario_cache.h"
#include "core/simulation.h"
#include "data/pressure_trace.h"
#include "data/som.h"
#include "net/placement.h"
#include "net/radio_graph.h"
#include "net/spanning_tree.h"
#include "net/wave.h"
#include "spans.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using wsnq::AlgorithmKind;
using wsnq::Scenario;
using wsnq::ScenarioCache;
using wsnq::SimulationConfig;
using wsnq::SimulationResult;
using wsnq::Status;
using wsnq::StatusOr;

/// Seeds tried per --seed: configuration seeds are --seed * kSeedStride + i.
constexpr uint64_t kSeedStride = 64;

struct SimSpec {
  SimulationConfig config;
  int configs = 1;              ///< configurations per iteration
  int runs = 1;                 ///< run indices per configuration
  /// Threads of each case's own WaveExecutor (in-run subtree
  /// parallelism); 0 installs none, so convergecasts run the serial loop.
  int wave_threads = 0;
  /// Cases per iteration; 0 runs every case in each iteration. Smaller
  /// batches give short iterations, so a run takes the median over many.
  int batch = 0;
  std::vector<uint64_t> seeds;  ///< one per configuration

  SimulationConfig Config(int j) const {
    SimulationConfig c = config;
    c.seed = seeds[static_cast<size_t>(j)];
    return c;
  }
  int cases() const { return configs * runs; }
  int batch_size() const { return batch > 0 ? batch : cases(); }
};

/// Picks the configuration seeds of --seed `seed`: the first `configs`
/// candidates whose scenarios can be built.
Status ChooseSeeds(uint64_t seed, SimSpec* spec) {
  for (uint64_t i = 0;
       static_cast<int>(spec->seeds.size()) < spec->configs && i < kSeedStride;
       ++i) {
    SimulationConfig c = spec->config;
    c.seed = seed * kSeedStride + i;
    if (c.dataset == wsnq::DatasetKind::kPressure) {
      ScenarioCache probe;
      const Status status = probe.Prepare(c, spec->runs);
      if (status.code() == wsnq::StatusCode::kFailedPrecondition) continue;
      if (!status.ok()) return status;
    }
    spec->seeds.push_back(c.seed);
  }
  if (static_cast<int>(spec->seeds.size()) < spec->configs) {
    return Status::FailedPrecondition("too few buildable seeds");
  }
  return Status::Ok();
}

SimSpec MakeSpec(const BenchArgs& args) {
  SimSpec spec;
  SimulationConfig& c = spec.config;
  c.threads = 1;
  c.check_oracle = true;
  c.collect_metrics = false;
  // Table 2: tau = 125 rounds, psi = 5 %, phi = 0.5, rho = 35.
  c.synthetic.period_rounds = 125.0;
  c.synthetic.noise_percent = 5.0;
  c.phi = 0.5;
  c.radio_range = 35.0;
  if (args.workload == "paper-default") {
    c.num_sensors = 256;
    c.area_width = c.area_height = 200.0;
    c.rounds = 250;
    spec.runs = 20;
  } else if (args.workload == "scale-64k") {
    // Constant density: the side grows with sqrt(n), so the mean degree
    // stays at the 256-node value while the tree gets deeper.
    c.num_sensors = 65536;
    c.area_width = c.area_height = 200.0 * std::sqrt(65536.0 / 256.0);
    c.rounds = 10;
    spec.runs = 8;
    // One case per iteration (about 1.5 s), on a subtree-parallel wave
    // pool of two threads, so the engine is on the measured path.
    spec.batch = 1;
    spec.wave_threads = std::min(2, Nproc());
  } else {  // pressure-arq
    c.dataset = wsnq::DatasetKind::kPressure;
    c.pressure.num_stations = 1022;
    c.area_width = c.area_height = 200.0;
    c.rounds = 250;
    c.fault.loss = 0.15;
    c.fault.loss_model = wsnq::LossModel::kGilbertElliott;
    c.fault.burst_len = 4.0;
    c.fault.arq.enabled = true;
    // The trace and the SOM deployment are fixed per seed; only the root
    // changes between runs, so breadth comes from several seeds.
    spec.configs = 4;
    spec.runs = 1;
  }
  return spec;
}

/// Simulated outputs of one protocol replay; compared bit for bit across
/// iterations and hashed into the digest.
struct ReplayOutput {
  double hotspot_mj = 0.0;
  double packets = 0.0;
  double values = 0.0;
  double refinements = 0.0;
  int64_t errors = 0;
  int64_t rounds = 0;
  int64_t net_packets = 0;
  int64_t net_convergecasts = 0;
  int64_t net_floods = 0;

  bool operator==(const ReplayOutput&) const = default;
};

struct RunOutput {
  int64_t vertices = 0;
  std::vector<double> call_s;      ///< per protocol, wall
  std::vector<double> call_cpu_s;  ///< per protocol, process CPU
  std::vector<ReplayOutput> replays;
};

/// Runs case `index` the way core/experiment.cc runs one run: with
/// `wave_threads` > 0 the case gets a WaveExecutor of its own, as with
/// --subtree-parallel on.
Status ExecuteRun(const SimSpec& spec, const std::vector<AlgorithmKind>& kinds,
                  const std::vector<const char*>& span_names,
                  ScenarioCache* cache, int index, int wave_threads,
                  RunOutput* out) {
  const SimulationConfig config = spec.Config(index / spec.runs);
  const int run = index % spec.runs;
  // Declared before the scenario: the Network borrows it.
  std::optional<wsnq::WaveExecutor> wave_executor;
  StatusOr<Scenario> built = [&] {
    ScopedSpan span("core.build_scenario");
    return wsnq::BuildScenario(config, run, cache);
  }();
  if (!built.ok()) return built.status();
  Scenario& scenario = built.value();
  if (wave_threads > 0) {
    wave_executor.emplace(wave_threads, /*target_parts=*/4 * wave_threads);
    scenario.network->set_wave_executor(&*wave_executor);
  }
  {
    ScopedSpan span("core.materialize_values");
    scenario.MaterializeValues(config.rounds + 1);
  }
  {
    ScopedSpan span("core.oracle_sort");
    scenario.MaterializeSortedSensors();
  }
  out->vertices = scenario.network->num_vertices();
  out->call_s.assign(kinds.size(), 0.0);
  out->call_cpu_s.assign(kinds.size(), 0.0);
  out->replays.assign(kinds.size(), ReplayOutput{});
  for (size_t i = 0; i < kinds.size(); ++i) {
    const double t0 = Now();
    const double cpu0 = ProcessCpuSeconds();
    SimulationResult result;
    {
      ScopedSpan span(span_names[i]);
      std::unique_ptr<wsnq::QuantileProtocol> protocol = wsnq::MakeProtocol(
          kinds[i], scenario.k, scenario.source->range_min(),
          scenario.source->range_max(), config.wire);
      result = wsnq::RunSimulation(scenario, protocol.get(), config.rounds,
                                   /*check_oracle=*/true);
    }
    out->call_s[i] = Now() - t0;
    out->call_cpu_s[i] = ProcessCpuSeconds() - cpu0;
    ReplayOutput& r = out->replays[i];
    r.hotspot_mj = result.mean_max_round_energy_mj;
    r.packets = result.mean_packets;
    r.values = result.mean_values;
    r.refinements = result.mean_refinements;
    r.errors = result.errors;
    r.rounds = result.rounds;
    r.net_packets = scenario.network->total_packets();
    r.net_convergecasts = scenario.network->total_convergecasts();
    r.net_floods = scenario.network->total_floods();
  }
  return Status::Ok();
}

/// Hash of every simulated output, in run and protocol order; doubles are
/// hashed as hexfloats, so equal digests mean bit-identical outputs.
std::string Digest(const std::vector<RunOutput>& runs,
                   const std::vector<AlgorithmKind>& kinds) {
  uint64_t h = kFnvOffset;
  char buf[512];
  for (size_t run = 0; run < runs.size(); ++run) {
    for (size_t i = 0; i < kinds.size(); ++i) {
      const ReplayOutput& r = runs[run].replays[i];
      std::snprintf(buf, sizeof(buf),
                    "%zu|%s|%a|%a|%a|%a|%" PRId64 "|%" PRId64 "|%" PRId64
                    "|%" PRId64 "|%" PRId64 ";",
                    run, wsnq::AlgorithmName(kinds[i]), r.hotspot_mj,
                    r.packets, r.values, r.refinements, r.errors, r.rounds,
                    r.net_packets, r.net_convergecasts, r.net_floods);
      h = Fnv1a(h, buf);
    }
  }
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

/// Times the public net/ and data/ construction functions on the
/// workload's own inputs (run 0), outside the measured phase. BuildScenario
/// calls the same functions internally, where the benchmark cannot see
/// them.
void RunConstructionProbes(const SimulationConfig& config,
                           const Scenario& scenario, JsonWriter* out) {
  ScopedSpan probe("bench.probe");
  double placement_s = 0.0;
  double pressure_trace_s = 0.0;
  double som_s = 0.0;
  std::vector<wsnq::Point2D> points = scenario.network->graph().points();
  if (config.dataset == wsnq::DatasetKind::kSynthetic) {
    wsnq::Rng rng(config.seed * 7919 + 13);
    const double t0 = Now();
    {
      ScopedSpan span("net.placement");
      StatusOr<std::vector<wsnq::Point2D>> placed =
          wsnq::ConnectedPlacement(config.num_sensors + 1, config.area_width,
                                   config.area_height, config.radio_range,
                                   &rng);
      (void)placed;
    }
    placement_s = Now() - t0;
  } else {
    wsnq::PressureTrace::Options options = config.pressure;
    options.seed = config.seed;
    options.rounds = config.rounds + 2;
    double t0 = Now();
    std::unique_ptr<wsnq::PressureTrace> trace;
    {
      ScopedSpan span("data.pressure_trace");
      trace = std::make_unique<wsnq::PressureTrace>(options);
    }
    pressure_trace_s = Now() - t0;
    const std::vector<double> features = trace->FirstMeasurements();
    t0 = Now();
    {
      ScopedSpan span("data.som");
      wsnq::SelfOrganizingMap::Options som_options;
      som_options.seed = config.seed * 131 + 7;
      wsnq::SelfOrganizingMap som(features, som_options);
      points = som.PlaceStations(features, config.area_width,
                                 config.area_height);
    }
    som_s = Now() - t0;
  }
  double t0 = Now();
  std::unique_ptr<wsnq::RadioGraph> graph;
  {
    ScopedSpan span("net.radio_graph");
    graph = std::make_unique<wsnq::RadioGraph>(points, config.radio_range);
  }
  const double radio_graph_s = Now() - t0;
  t0 = Now();
  {
    ScopedSpan span("net.routing_tree");
    StatusOr<wsnq::SpanningTree> tree = wsnq::BuildRoutingTree(
        *graph, scenario.network->root(), config.tree_strategy,
        config.seed * 53);
    (void)tree;
  }
  const double routing_tree_s = Now() - t0;

  const wsnq::RadioGraph& used = scenario.network->graph();
  int64_t degree_sum = 0;
  for (int v = 0; v < used.size(); ++v) {
    degree_sum += static_cast<int64_t>(used.neighbors(v).size());
  }
  const std::vector<int>& depth = scenario.network->tree().depth;
  out->Field("net.placement_s", placement_s);
  out->Field("net.radio_graph_s", radio_graph_s);
  out->Field("net.routing_tree_s", routing_tree_s);
  out->Field("net.radio_edges", degree_sum / 2);
  out->Field("net.tree_depth",
             static_cast<int64_t>(*std::max_element(depth.begin(),
                                                    depth.end())));
  out->Field("data.pressure_trace_s", pressure_trace_s);
  out->Field("data.som_s", som_s);
}

/// Replays the first case once with the metrics registry on and reports
/// the fault layer's uplink counters, summed over the protocols.
void RunCounterPass(const SimulationConfig& config,
                    const std::vector<AlgorithmKind>& kinds,
                    ScenarioCache* cache, JsonWriter* out) {
  StatusOr<Scenario> built = wsnq::BuildScenario(config, 0, cache);
  int64_t messages = 0, delivered = 0, retx = 0, acks = 0;
  if (built.ok()) {
    Scenario& scenario = built.value();
    scenario.MaterializeValues(config.rounds + 1);
    scenario.MaterializeSortedSensors();
    for (const AlgorithmKind kind : kinds) {
      std::unique_ptr<wsnq::QuantileProtocol> protocol = wsnq::MakeProtocol(
          kind, scenario.k, scenario.source->range_min(),
          scenario.source->range_max(), config.wire);
      const SimulationResult result = wsnq::RunSimulation(
          scenario, protocol.get(), config.rounds, true,
          /*keep_trail=*/false, /*collect_metrics=*/true);
      messages += result.metrics.counter("uplink_messages");
      delivered += result.metrics.counter("uplink_delivered");
      retx += result.metrics.counter("uplink_retx");
      acks += result.metrics.counter("arq_acks");
    }
  }
  out->Field("fault.uplink_messages", messages);
  out->Field("fault.uplink_delivered", delivered);
  out->Field("fault.uplink_retx", retx);
  out->Field("fault.arq_acks", acks);
}

}  // namespace

bool IsSimWorkload(const std::string& name) {
  return name == "paper-default" || name == "scale-64k" ||
         name == "pressure-arq";
}

bool RunSimWorkload(const BenchArgs& args, JsonWriter* out) {
  SimSpec spec = MakeSpec(args);
  if (const Status status = ChooseSeeds(args.seed, &spec); !status.ok()) {
    std::fprintf(stderr, "no workload: %s\n", status.ToString().c_str());
    return false;
  }
  const SimulationConfig config = spec.Config(0);
  const std::vector<AlgorithmKind> kinds = wsnq::PaperAlgorithms();
  std::vector<const char*> span_names;
  for (const AlgorithmKind kind : kinds) {
    span_names.push_back(InternName(std::string("algo.") +
                                    wsnq::AlgorithmName(kind) + ".run"));
  }

  out->Key("config").BeginObject();
  out->Field("dataset", config.dataset == wsnq::DatasetKind::kSynthetic
                            ? "synthetic"
                            : "pressure");
  out->Field("num_sensors", config.dataset == wsnq::DatasetKind::kSynthetic
                                ? config.num_sensors
                                : config.pressure.num_stations);
  out->Field("area_side", config.area_width);
  out->Field("radio_range", config.radio_range);
  out->Field("rounds", config.rounds);
  out->Field("configs", spec.configs);
  out->Field("runs_per_config", spec.runs);
  out->Field("cases_per_iteration", spec.batch_size());
  out->Field("wave_threads", spec.wave_threads);
  out->Field("loss", config.fault.loss);
  out->Field("arq", config.fault.arq.enabled);
  out->Field("seed", static_cast<int64_t>(args.seed));
  out->Key("config_seeds").BeginArray();
  for (const uint64_t s : spec.seeds) out->Value(static_cast<int64_t>(s));
  out->EndArray();
  out->EndObject();
  out->Key("protocols").BeginArray();
  for (const AlgorithmKind kind : kinds) out->Value(wsnq::AlgorithmName(kind));
  out->EndArray();

  // --- Set-up: fill a fresh cache for every case, several times. -------
  const int min_setups = args.trace ? 4 : 3;
  std::unique_ptr<ScenarioCache> cache;
  out->Key("setup").BeginArray();
  double setup_total = 0.0;
  for (int rep = 0;
       rep < min_setups || (setup_total < 1.5 && rep < 15); ++rep) {
    const bool traced = args.trace && rep % 2 == 1;
    cache.reset();
    auto fresh = std::make_unique<ScenarioCache>();
    SetTracing(traced);
    const double t0 = Now();
    Status status;
    {
      ScopedSpan setup("bench.setup");
      ScopedSpan span("core.cache_prepare");
      for (int j = 0; j < spec.configs && status.ok(); ++j) {
        status = fresh->Prepare(spec.Config(j), spec.runs);
      }
    }
    const double dt = Now() - t0;
    SetTracing(false);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return false;
    }
    setup_total += dt;
    out->BeginArray().Value(traced).Value(dt).EndArray();
    cache = std::move(fresh);
  }
  out->EndArray();

  // --- Measured phase. -------------------------------------------------
  const int batch = spec.batch_size();
  const int per_pass = spec.cases() / batch;
  // Traced and untraced iterations alternate by whole passes, so that each
  // kind covers every case; the first pass is untraced.
  const int min_iterations =
      std::max(args.trace ? 4 : 3, (args.trace ? 2 : 1) * per_pass);
  std::vector<RunOutput> first(static_cast<size_t>(spec.cases()));
  int64_t nondeterministic = 0;
  int64_t mismatches = 0;
  int64_t rounds_checked = 0;
  const double measure_start = Now();
  // iterations: traced, wall seconds, node rounds, answered rounds (all
  // protocols), CPU seconds; calls: traced, protocol, wall seconds, node
  // rounds, rounds, CPU seconds.
  out->Key("iterations").BeginArray();
  std::vector<std::vector<double>> calls;
  for (int it = 0;
       it < min_iterations || Now() - measure_start < args.seconds; ++it) {
    const int pass = it / per_pass;
    const bool traced = args.trace && pass % 2 == 1;
    const size_t begin = static_cast<size_t>((it % per_pass) * batch);
    std::vector<RunOutput> runs(static_cast<size_t>(batch));
    SetTracing(traced);
    const double t0 = Now();
    const double cpu0 = ProcessCpuSeconds();
    Status status;
    {
      ScopedSpan span("bench.iteration");
      for (size_t run = 0; run < runs.size() && status.ok(); ++run) {
        status = ExecuteRun(spec, kinds, span_names, cache.get(),
                            static_cast<int>(begin + run), spec.wave_threads,
                            &runs[run]);
      }
    }
    const double dt = Now() - t0;
    const double cpu_dt = ProcessCpuSeconds() - cpu0;
    SetTracing(false);
    if (!status.ok()) {
      std::fprintf(stderr, "run failed: %s\n", status.ToString().c_str());
      return false;
    }
    int64_t node_rounds = 0;
    int64_t answered_rounds = 0;
    for (const RunOutput& run : runs) {
      for (size_t i = 0; i < kinds.size(); ++i) {
        const int64_t rounds = run.replays[i].rounds;
        node_rounds += run.vertices * rounds;
        answered_rounds += rounds;
        rounds_checked += rounds;
        mismatches += run.replays[i].errors;
        calls.push_back({traced ? 1.0 : 0.0, static_cast<double>(i),
                         run.call_s[i],
                         static_cast<double>(run.vertices * rounds),
                         static_cast<double>(rounds), run.call_cpu_s[i]});
      }
    }
    out->BeginArray()
        .Value(traced)
        .Value(dt)
        .Value(node_rounds)
        .Value(answered_rounds)
        .Value(cpu_dt)
        .EndArray();
    for (size_t run = 0; run < runs.size(); ++run) {
      if (pass == 0) {
        first[begin + run] = std::move(runs[run]);
        continue;
      }
      for (size_t i = 0; i < kinds.size(); ++i) {
        if (!(runs[run].replays[i] == first[begin + run].replays[i])) {
          ++nondeterministic;
        }
      }
    }
  }
  const double measure_end = Now();
  out->EndArray();

  // Cross-arrangement check: case 0 once more, serially if the measured
  // phase ran wave threads, else on a subtree-parallel wave pool.
  const int check_wave_threads =
      spec.wave_threads > 0 ? 0 : std::min(4, Nproc());
  RunOutput check;
  if (const Status status = ExecuteRun(spec, kinds, span_names, cache.get(), 0,
                                       check_wave_threads, &check);
      !status.ok()) {
    std::fprintf(stderr, "check run failed: %s\n", status.ToString().c_str());
    return false;
  }
  int64_t arrangement_mismatches = 0;
  for (size_t i = 0; i < kinds.size(); ++i) {
    if (!(check.replays[i] == first[0].replays[i])) ++arrangement_mismatches;
  }
  out->Key("measure").BeginArray().Value(measure_start).Value(measure_end)
      .EndArray();
  out->Key("calls").BeginArray();
  for (const auto& c : calls) {
    out->BeginArray();
    for (const double v : c) out->Value(v);
    out->EndArray();
  }
  out->EndArray();

  // Per-protocol simulated outputs of the first pass: means over runs,
  // sums for the network totals.
  out->Key("results").BeginArray();
  for (size_t i = 0; i < kinds.size(); ++i) {
    ReplayOutput sum;
    for (const RunOutput& run : first) {
      const ReplayOutput& r = run.replays[i];
      sum.hotspot_mj += r.hotspot_mj;
      sum.packets += r.packets;
      sum.values += r.values;
      sum.refinements += r.refinements;
      sum.errors += r.errors;
      sum.rounds += r.rounds;
      sum.net_packets += r.net_packets;
      sum.net_convergecasts += r.net_convergecasts;
      sum.net_floods += r.net_floods;
    }
    const double n = static_cast<double>(first.size());
    out->BeginObject();
    out->Field("name", wsnq::AlgorithmName(kinds[i]));
    out->Field("hotspot_mj", sum.hotspot_mj / n);
    out->Field("packets", sum.packets / n);
    out->Field("values", sum.values / n);
    out->Field("refinements", sum.refinements / n);
    out->Field("errors", sum.errors);
    out->Field("rounds", sum.rounds);
    out->Field("net_packets", sum.net_packets);
    out->Field("net_convergecasts", sum.net_convergecasts);
    out->Field("net_floods", sum.net_floods);
    out->EndObject();
  }
  out->EndArray();
  out->Field("digest", Digest(first, kinds));
  out->Key("checks").BeginObject();
  out->Field("rounds_checked", rounds_checked);
  out->Field("oracle_mismatches", mismatches);
  out->Field("nondeterministic_replays", nondeterministic);
  out->Field("arrangement_replays", static_cast<int64_t>(kinds.size()));
  out->Field("arrangement_wave_threads", check_wave_threads);
  out->Field("arrangement_mismatches", arrangement_mismatches);
  out->EndObject();

  out->Key("layer").BeginObject();
  out->Field("core.scenario_cache_hits", cache->hits());
  out->Field("core.scenario_cache_misses", cache->misses());
  if (args.trace) {
    RunCounterPass(config, kinds, cache.get(), out);
    StatusOr<Scenario> scenario = wsnq::BuildScenario(config, 0, cache.get());
    if (scenario.ok()) {
      SetTracing(true);
      RunConstructionProbes(config, scenario.value(), out);
      SetTracing(false);
    }
  }
  out->EndObject();
  return true;
}

}  // namespace perfbench

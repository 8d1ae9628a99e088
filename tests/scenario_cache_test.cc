// Scenario-cache coverage (core/scenario_cache.h): content-key derivation,
// hit/miss accounting through the Prepare/seal lifecycle, aliasing of the
// shared-immutable artifacts across runs and sweep points (including under
// the ThreadPool), and — the load-bearing property — bit-identical
// scenarios, protocol replays and traces against BuildScenario with no
// store, at any thread count. The tsan CI job runs it, so the sealed
// read-only lookup phase is race-checked.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algo/registry.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "core/scenario_cache.h"
#include "core/simulation.h"
#include "tests/test_scenario.h"
#include "util/mutex.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace wsnq {
namespace {

using testing_support::ExpectResultsIdentical;

SimulationConfig SmallSynthetic() {
  SimulationConfig config;
  config.num_sensors = 24;
  config.radio_range = 70.0;
  config.rounds = 10;
  return config;
}

SimulationConfig SmallPressure() {
  SimulationConfig config;
  config.dataset = DatasetKind::kPressure;
  config.pressure.num_stations = 40;
  config.radio_range = 70.0;
  config.pressure_scale_bits = 12;
  config.rounds = 8;
  return config;
}

void ExpectScenariosIdentical(const Scenario& a, const Scenario& b,
                              int rounds, const std::string& context) {
  ASSERT_NE(a.network, nullptr) << context;
  ASSERT_NE(b.network, nullptr) << context;
  EXPECT_EQ(a.k, b.k) << context;
  EXPECT_EQ(a.sensor_of_vertex, b.sensor_of_vertex) << context;
  EXPECT_EQ(a.network->root(), b.network->root()) << context;
  EXPECT_EQ(a.network->tree().parent, b.network->tree().parent) << context;
  EXPECT_EQ(a.network->tree().post_order, b.network->tree().post_order)
      << context;
  EXPECT_EQ(a.source->range_min(), b.source->range_min()) << context;
  EXPECT_EQ(a.source->range_max(), b.source->range_max()) << context;
  for (int64_t round = 0; round <= rounds; ++round) {
    EXPECT_EQ(a.ValuesView(round), b.ValuesView(round))
        << context << " round=" << round;
  }
}

// --- Content keys ---------------------------------------------------------

TEST(ScenarioCacheKeys, SyntheticDeploymentIgnoresWorkloadKnobs) {
  const SimulationConfig base = SmallSynthetic();
  SimulationConfig workload = base;
  workload.synthetic.noise_percent = 42.0;
  workload.synthetic.period_rounds = 9.0;
  workload.phi = 0.9;
  workload.rounds = 99;
  // Same deployment: fig7/fig8-style sweeps share the placement.
  EXPECT_EQ(internal::SyntheticDeploymentKey(base, 0),
            internal::SyntheticDeploymentKey(workload, 0));
  // But not the same measurement field.
  EXPECT_NE(internal::SyntheticSourceKey(base, 0),
            internal::SyntheticSourceKey(workload, 0));
}

TEST(ScenarioCacheKeys, SyntheticDeploymentCoversTopologySlice) {
  const SimulationConfig base = SmallSynthetic();
  const std::string key = internal::SyntheticDeploymentKey(base, 0);
  EXPECT_NE(key, internal::SyntheticDeploymentKey(base, 1));  // per-run draw

  SimulationConfig changed = base;
  changed.seed = 99;
  EXPECT_NE(key, internal::SyntheticDeploymentKey(changed, 0));
  changed = base;
  changed.num_sensors = 25;
  EXPECT_NE(key, internal::SyntheticDeploymentKey(changed, 0));
  changed = base;
  changed.values_per_node = 2;
  EXPECT_NE(key, internal::SyntheticDeploymentKey(changed, 0));
  changed = base;
  changed.radio_range = 70.0000001;
  EXPECT_NE(key, internal::SyntheticDeploymentKey(changed, 0));
  changed = base;
  changed.area_width = 150.0;
  EXPECT_NE(key, internal::SyntheticDeploymentKey(changed, 0));
}

TEST(ScenarioCacheKeys, PressureTraceKeyTracksEffectiveRounds) {
  const SimulationConfig base = SmallPressure();
  const std::string key = internal::PressureTraceKey(base);
  // The generator draws the whole regional series up front, so the trace —
  // including sample 0 — depends on the effective round count and skip.
  SimulationConfig changed = base;
  // The trace is sized to exactly rounds + 2 samples per stride, so any
  // round-count change reshapes the grid and must change the key.
  changed.rounds = 100;
  EXPECT_NE(key, internal::PressureTraceKey(changed));
  changed.rounds = 300;
  EXPECT_NE(key, internal::PressureTraceKey(changed));
  changed.rounds = base.rounds;
  EXPECT_EQ(key, internal::PressureTraceKey(changed));
  changed = base;
  changed.pressure.skip = 3;
  EXPECT_NE(key, internal::PressureTraceKey(changed));
  // Under a covering max_skip the grid is fixed by the coverage stride, so
  // skip points share one key (and one trace); a skip beyond the cover
  // widens the grid and must split.
  SimulationConfig covered = base;
  covered.pressure.max_skip = 15;
  const std::string covered_key = internal::PressureTraceKey(covered);
  changed = covered;
  changed.pressure.skip = 3;
  EXPECT_EQ(covered_key, internal::PressureTraceKey(changed));
  changed.pressure.skip = 15;
  EXPECT_EQ(covered_key, internal::PressureTraceKey(changed));
  changed.pressure.skip = 16;
  EXPECT_NE(covered_key, internal::PressureTraceKey(changed));
  changed = base;
  changed.pressure.range_setting =
      PressureTrace::RangeSetting::kPessimistic;
  EXPECT_NE(key, internal::PressureTraceKey(changed));
  // The trace is run-invariant: no run index in the key at all, and the
  // workload/deployment keys refine it.
  const std::string workload = internal::PressureWorkloadKey(base);
  const std::string deploy = internal::PressureDeploymentKey(base);
  EXPECT_EQ(workload.compare(0, key.size(), key), 0);
  EXPECT_EQ(deploy.compare(0, key.size(), key), 0);
  changed = base;
  changed.pressure_scale_bits = 14;
  EXPECT_NE(workload, internal::PressureWorkloadKey(changed));
  EXPECT_EQ(deploy, internal::PressureDeploymentKey(changed));
}

TEST(ScenarioCacheKeys, RoutingTreeKeyCoversRootStrategySalt) {
  const std::string deploy = "deploy";
  const std::string key =
      internal::RoutingTreeKey(deploy, 3, ParentSelection::kNearest, 17);
  EXPECT_NE(key,
            internal::RoutingTreeKey(deploy, 4, ParentSelection::kNearest,
                                     17));
  EXPECT_NE(key, internal::RoutingTreeKey(deploy, 3,
                                          ParentSelection::kRandom, 17));
  EXPECT_NE(key,
            internal::RoutingTreeKey(deploy, 3, ParentSelection::kNearest,
                                     18));
  EXPECT_NE(key, internal::RoutingTreeKey("other", 3,
                                          ParentSelection::kNearest, 17));
}

// --- Lifecycle: Prepare, seal, hit/miss -----------------------------------

TEST(ScenarioCacheTest, PrepareThenBuildHitsEverything) {
  const SimulationConfig config = SmallSynthetic();
  ScenarioCache cache;
  EXPECT_FALSE(cache.sealed());
  ASSERT_TRUE(cache.Prepare(config, 3).ok());
  EXPECT_TRUE(cache.sealed());
  // Per run: deployment + tree + source.
  EXPECT_EQ(cache.size(), 9);
  const int64_t misses_after_prepare = cache.misses();
  for (int run = 0; run < 3; ++run) {
    auto scenario = cache.Build(config, run);
    ASSERT_TRUE(scenario.ok());
  }
  EXPECT_EQ(cache.misses(), misses_after_prepare);  // all lookups hit
  EXPECT_EQ(cache.sealed_drops(), 0);
  EXPECT_GT(cache.hits(), 0);
}

TEST(ScenarioCacheTest, PressureWorkloadBuiltOncePerSeedNotPerRun) {
  const SimulationConfig config = SmallPressure();
  ScenarioCache cache;
  ASSERT_TRUE(cache.Prepare(config, 4).ok());
  // One workload + one deployment shared by all runs; only the per-run
  // trees multiply (and even those can collide when two runs draw the
  // same root — the salt differs, so they do not here).
  EXPECT_LE(cache.size(), 2 + 4);
  EXPECT_GE(cache.size(), 2 + 1);
}

TEST(ScenarioCacheTest, SealedCacheMissRebuildsFreshWithoutInsert) {
  const SimulationConfig config = SmallSynthetic();
  ScenarioCache cache;
  ASSERT_TRUE(cache.Prepare(config, 1).ok());
  const int64_t size_after_prepare = cache.size();

  SimulationConfig other = SmallSynthetic();
  other.seed = 77;  // never prepared
  auto scenario = cache.Build(other, 0);
  ASSERT_TRUE(scenario.ok());  // miss path falls back to a fresh build
  EXPECT_EQ(cache.size(), size_after_prepare);  // sealed: nothing inserted
  EXPECT_GT(cache.sealed_drops(), 0);

  // And the fallback is still the correct scenario.
  auto uncached = BuildScenario(other, 0);
  ASSERT_TRUE(uncached.ok());
  ExpectScenariosIdentical(scenario.value(), uncached.value(), other.rounds,
                           "sealed-miss");
}

TEST(ScenarioCacheTest, PrepareReportsFirstFailingRunStatus) {
  SimulationConfig config = SmallSynthetic();
  config.radio_range = 0.001;  // never connectable
  ScenarioCache cache;
  const Status prepared = cache.Prepare(config, 4);
  ASSERT_FALSE(prepared.ok());
  const auto uncached = BuildScenario(config, 0);
  ASSERT_FALSE(uncached.ok());
  EXPECT_EQ(prepared.code(), uncached.status().code());
  EXPECT_EQ(prepared.message(), uncached.status().message());
}

// --- Sharing --------------------------------------------------------------

TEST(ScenarioCacheTest, PressureRunsAliasGraphAndSources) {
  const SimulationConfig config = SmallPressure();
  ScenarioCache cache;
  ASSERT_TRUE(cache.Prepare(config, 3).ok());
  auto first = cache.Build(config, 0);
  ASSERT_TRUE(first.ok());
  for (int run = 1; run < 3; ++run) {
    auto scenario = cache.Build(config, run);
    ASSERT_TRUE(scenario.ok());
    // Shared immutable half: same source chain. The radio graph is
    // numbered in each run's tree order, so it is shared by the builds of
    // one run (one routing-topology artifact), not across runs.
    EXPECT_EQ(scenario.value().source, first.value().source);
    auto again = cache.Build(config, run);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(&again.value().network->graph(),
              &scenario.value().network->graph());
    // Per-run mutable half: every run owns its Network.
    EXPECT_NE(scenario.value().network.get(), first.value().network.get());
    EXPECT_NE(again.value().network.get(), scenario.value().network.get());
  }
}

TEST(ScenarioCacheTest, SyntheticDeploymentSharedAcrossWorkloadSweep) {
  // fig8-style: only the noise changes between sweep points, so the second
  // point's runs reuse the first point's deployments and trees.
  SimulationConfig quiet = SmallSynthetic();
  SimulationConfig noisy = SmallSynthetic();
  noisy.synthetic.noise_percent = 40.0;
  ScenarioCache cache;
  ASSERT_TRUE(cache.Prepare(quiet, 2).ok());
  const int64_t size_after_first = cache.size();
  ASSERT_TRUE(cache.Prepare(noisy, 2).ok());
  // Only the sources are new; deployments and trees hit.
  EXPECT_EQ(cache.size(), size_after_first + 2);

  auto a = cache.Build(quiet, 1);
  auto b = cache.Build(noisy, 1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(&a.value().network->graph(), &b.value().network->graph());
  EXPECT_NE(a.value().source, b.value().source);
}

TEST(ScenarioCacheTest, ConcurrentSealedBuildsAreRaceFreeAndIdentical) {
  // Sealed-cache lookups run concurrently in the parallel experiment
  // phase; under tsan this pins the read-only contract.
  const SimulationConfig config = SmallPressure();
  ScenarioCache cache;
  ASSERT_TRUE(cache.Prepare(config, 4).ok());
  auto reference = cache.Build(config, 2);
  ASSERT_TRUE(reference.ok());

  constexpr int kTasks = 8;
  std::vector<StatusOr<Scenario>> built;
  built.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    built.emplace_back(Status::Internal("unset"));
  }
  ThreadPool pool(4);
  const Status status = pool.ParallelFor(kTasks, [&](int64_t i) {
    built[static_cast<size_t>(i)] = cache.Build(config, 2);
    return Status::Ok();
  });
  ASSERT_TRUE(status.ok());
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(built[static_cast<size_t>(i)].ok()) << i;
    const Scenario& scenario = built[static_cast<size_t>(i)].value();
    EXPECT_EQ(&scenario.network->graph(),
              &reference.value().network->graph());
    ExpectScenariosIdentical(scenario, reference.value(), config.rounds,
                             "task " + std::to_string(i));
  }
}

// --- Parallel Prepare ------------------------------------------------------
//
// Prepare fans runs out over config.threads pool threads into private
// stores and merges them in run order; everything observable — the key
// set, the hit/miss counts, the artifacts, the failure Status — must equal
// the inline serial loop (threads = 1).

void ExpectGraphsIdentical(const RadioGraph& a, const RadioGraph& b,
                           const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  EXPECT_EQ(a.rho(), b.rho()) << context;
  for (int v = 0; v < a.size(); ++v) {
    EXPECT_EQ(std::memcmp(&a.point(v), &b.point(v), sizeof(Point2D)), 0)
        << context << " v=" << v;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << context << " v=" << v;
  }
}

// Reference store: the plain serial pass — a map that counts a lookup as
// a hit iff an earlier build (of any run) stored the key.
class SerialReferenceStore final : public internal::ArtifactStore {
 public:
  std::shared_ptr<const void> Get(const std::string& key) const override {
    const auto it = entries_.find(key);
    ++(it == entries_.end() ? misses_ : hits_);
    return it == entries_.end() ? nullptr : it->second;
  }
  void Put(const std::string& key,
           std::shared_ptr<const void> value) override {
    entries_.emplace(key, std::move(value));
  }
  /// Builds runs [0, runs) in order, stopping after the first failure.
  void Prepare(const SimulationConfig& config, int runs) {
    for (int run = 0; run < runs; ++run) {
      if (!BuildScenario(config, run, this).ok()) return;
    }
  }
  std::vector<std::string> Keys() const {
    std::vector<std::string> keys;
    for (const auto& entry : entries_) keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    return keys;
  }
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  std::unordered_map<std::string, std::shared_ptr<const void>> entries_;
  mutable int64_t hits_ = 0;
  mutable int64_t misses_ = 0;
};

std::vector<SimulationConfig> ParallelPrepareConfigs() {
  SimulationConfig multi_value = SmallSynthetic();
  multi_value.values_per_node = 2;
  return {SmallSynthetic(), multi_value, SmallPressure()};
}

constexpr int kParallelRuns = 3;

TEST(ScenarioCacheParallel, KeysAndCountsMatchSerialForAnyThreadCount) {
  for (const SimulationConfig& base : ParallelPrepareConfigs()) {
    // A second, workload-only sweep point: its Prepare hits the first
    // point's deployments and trees, so the counts cover read-through too.
    SimulationConfig noisy = base;
    noisy.synthetic.noise_percent = 40.0;
    noisy.pressure_scale_bits = base.pressure_scale_bits + 1;
    SerialReferenceStore reference;
    reference.Prepare(base, kParallelRuns);
    reference.Prepare(noisy, kParallelRuns);
    EXPECT_GT(reference.hits(), 0);
    for (int threads : {1, 2, 4}) {
      const std::string context = "vpn=" +
                                  std::to_string(base.values_per_node) +
                                  " threads=" + std::to_string(threads);
      SimulationConfig first = base;
      SimulationConfig second = noisy;
      first.threads = second.threads = threads;
      ScenarioCache cache;
      ASSERT_TRUE(cache.Prepare(first, kParallelRuns).ok()) << context;
      ASSERT_TRUE(cache.Prepare(second, kParallelRuns).ok()) << context;
      EXPECT_TRUE(cache.sealed()) << context;
      EXPECT_EQ(cache.Keys(), reference.Keys()) << context;
      EXPECT_EQ(cache.hits(), reference.hits()) << context;
      EXPECT_EQ(cache.misses(), reference.misses()) << context;
    }
  }
}

TEST(ScenarioCacheParallel, ArtifactsBitIdenticalToUncachedBuild) {
  for (const SimulationConfig& base : ParallelPrepareConfigs()) {
    for (int threads : {1, 2, 4}) {
      SimulationConfig config = base;
      config.threads = threads;
      ScenarioCache cache;
      ASSERT_TRUE(cache.Prepare(config, kParallelRuns).ok());
      const int64_t misses_after_prepare = cache.misses();
      for (int run = 0; run < kParallelRuns; ++run) {
        const std::string context =
            "vpn=" + std::to_string(base.values_per_node) +
            " threads=" + std::to_string(threads) +
            " run=" + std::to_string(run);
        auto cached = cache.Build(config, run);
        auto uncached = BuildScenario(config, run);
        ASSERT_TRUE(cached.ok()) << context;
        ASSERT_TRUE(uncached.ok()) << context;
        const Network& a = *cached.value().network;
        const Network& b = *uncached.value().network;
        ExpectGraphsIdentical(a.graph(), b.graph(), context);
        EXPECT_EQ(a.tree().depth, b.tree().depth) << context;
        EXPECT_EQ(a.tree().children, b.tree().children) << context;
        EXPECT_EQ(a.tree().pre_order, b.tree().pre_order) << context;
        ExpectScenariosIdentical(cached.value(), uncached.value(),
                                 config.rounds, context);
      }
      EXPECT_EQ(cache.misses(), misses_after_prepare);  // all lookups hit
    }
  }
}

// A synthetic config whose run 0 builds but a later run does not: the
// radio range is below the jittered-grid fallback's spacing, so a run
// fails exactly when none of its uniform draws connects. Searched
// deterministically over seeds; returns the first failing run too.
std::optional<std::pair<SimulationConfig, int>> FindLateFailure(int runs) {
  SimulationConfig config;
  config.num_sensors = 8;
  config.rounds = 4;
  for (double rho : {60.0, 50.0, 40.0}) {
    config.radio_range = rho;
    for (uint64_t seed = 1; seed <= 64; ++seed) {
      config.seed = seed;
      if (!BuildScenario(config, 0).ok()) continue;
      for (int run = 1; run < runs; ++run) {
        if (!BuildScenario(config, run).ok()) {
          return std::make_pair(config, run);
        }
      }
    }
  }
  return std::nullopt;
}

TEST(ScenarioCacheParallel, LateFailureReportsSmallestFailingRun) {
  constexpr int kRuns = 6;
  const auto found = FindLateFailure(kRuns);
  ASSERT_TRUE(found.has_value()) << "no config with a late failing run";
  const auto& [base, first_failing] = *found;
  const Status uncached = BuildScenario(base, first_failing).status();
  SerialReferenceStore reference;
  reference.Prepare(base, kRuns);
  for (int threads : {1, 2, 4}) {
    const std::string context = "first_failing=" +
                                std::to_string(first_failing) +
                                " threads=" + std::to_string(threads);
    SimulationConfig config = base;
    config.threads = threads;
    ScenarioCache cache;
    const Status prepared = cache.Prepare(config, kRuns);
    ASSERT_FALSE(prepared.ok()) << context;
    EXPECT_EQ(prepared.code(), uncached.code()) << context;
    EXPECT_EQ(prepared.message(), uncached.message()) << context;
    EXPECT_TRUE(cache.sealed()) << context;
    // Runs up to the failure are merged; nothing after it.
    EXPECT_EQ(cache.Keys(), reference.Keys()) << context;
    EXPECT_EQ(cache.hits(), reference.hits()) << context;
    EXPECT_EQ(cache.misses(), reference.misses()) << context;
  }
}

// --- Bit-identical with and without the cache -----------------------------

TEST(ScenarioCacheTest, CachedScenarioIdenticalToUncached) {
  for (const SimulationConfig& config :
       {SmallSynthetic(), SmallPressure()}) {
    ScenarioCache cache;
    ASSERT_TRUE(cache.Prepare(config, 2).ok());
    for (int run = 0; run < 2; ++run) {
      auto cached = cache.Build(config, run);
      auto uncached = BuildScenario(config, run);
      ASSERT_TRUE(cached.ok());
      ASSERT_TRUE(uncached.ok());
      ExpectScenariosIdentical(cached.value(), uncached.value(),
                               config.rounds,
                               "run " + std::to_string(run));
    }
  }
}

TEST(ScenarioCacheTest, MaterializedValuesMatchLazyRows) {
  auto scenario = BuildScenario(SmallSynthetic(), 0);
  auto lazy = BuildScenario(SmallSynthetic(), 0);
  ASSERT_TRUE(scenario.ok());
  ASSERT_TRUE(lazy.ok());
  Scenario& s = scenario.value();
  EXPECT_EQ(s.materialized_rounds(), 0);
  s.MaterializeValues(8);
  EXPECT_EQ(s.materialized_rounds(), 8);
  EXPECT_EQ(lazy.value().materialized_rounds(), 0);
  for (int64_t round = 0; round < 11; ++round) {
    // Rounds past the materialized prefix exercise the scratch-row path.
    EXPECT_EQ(s.ValuesView(round), lazy.value().ValuesView(round))
        << "round " << round;
  }
}

void ExpectAggregateListsIdentical(
    const std::vector<AlgorithmAggregate>& a,
    const std::vector<AlgorithmAggregate>& b, const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string ctx = context + " algo=" + a[i].label;
    EXPECT_EQ(a[i].label, b[i].label) << ctx;
    EXPECT_EQ(a[i].runs, b[i].runs) << ctx;
    EXPECT_EQ(a[i].errors, b[i].errors) << ctx;
    EXPECT_EQ(a[i].max_rank_error, b[i].max_rank_error) << ctx;
    EXPECT_EQ(a[i].max_round_energy_mj.mean(),
              b[i].max_round_energy_mj.mean())
        << ctx;
    EXPECT_EQ(a[i].max_round_energy_mj.variance(),
              b[i].max_round_energy_mj.variance())
        << ctx;
    EXPECT_EQ(a[i].lifetime_rounds.mean(), b[i].lifetime_rounds.mean())
        << ctx;
    EXPECT_EQ(a[i].packets.mean(), b[i].packets.mean()) << ctx;
    EXPECT_EQ(a[i].values.mean(), b[i].values.mean()) << ctx;
    EXPECT_EQ(a[i].refinements.mean(), b[i].refinements.mean()) << ctx;
    EXPECT_EQ(a[i].rank_error.mean(), b[i].rank_error.mean()) << ctx;
  }
}

/// Gilbert–Elliott loss with ARQ, plus crashes that recover under tree
/// repair: the transport policy's per-link state rides on the per-run
/// Network, never on a cached artifact.
SimulationConfig Faulted(SimulationConfig config) {
  config.fault.loss = 0.12;
  config.fault.loss_model = LossModel::kGilbertElliott;
  config.fault.burst_len = 3.0;
  config.fault.arq.enabled = true;
  config.fault.crash_nodes = 3;
  config.fault.crash_round = 2;
  config.fault.crash_len = 4;
  config.fault.repair = true;
  return config;
}

/// Replays every paper protocol over `scenario` the way a RunExperiment
/// run does (one trace buffer for the whole run), keeping trails and
/// metrics so every field can be compared.
std::vector<SimulationResult> ReplayPaperProtocols(
    Scenario& scenario, const SimulationConfig& config,
    trace::TraceBuffer* buffer) {
  trace::RunScope trace_scope(buffer);
  scenario.MaterializeValues(config.rounds + 1);
  scenario.MaterializeSortedSensors();
  std::vector<SimulationResult> results;
  for (AlgorithmKind kind : PaperAlgorithms()) {
    auto protocol = MakeProtocol(kind, scenario.k,
                                 scenario.source->range_min(),
                                 scenario.source->range_max(), config.wire);
    results.push_back(RunSimulation(scenario, protocol.get(), config.rounds,
                                    /*check_oracle=*/true,
                                    /*keep_trail=*/true,
                                    /*collect_metrics=*/true));
  }
  return results;
}

std::string TraceBytes(const trace::TraceBuffer& buffer) {
  trace::TraceSink sink;
  ScopedSerialPhase fold_phase(FoldPhase());
  sink.Fold(buffer);
  return sink.SerializeJsonl();
}

// The uncached reference: every run's replay over BuildScenario(config,
// run) with no store must match the replay over a prepared cache in every
// SimulationResult field and metric, and in every trace byte.
TEST(ScenarioCacheDeterminism, ReplayOverCacheMatchesUncachedBuild) {
  constexpr int kRuns = 3;
  const std::pair<const char*, SimulationConfig> cases[] = {
      {"synthetic", SmallSynthetic()},
      {"synthetic faulted", Faulted(SmallSynthetic())},
      {"pressure", SmallPressure()},
      {"pressure faulted", Faulted(SmallPressure())},
  };
  for (const auto& [name, config] : cases) {
    ScenarioCache cache;
    ASSERT_TRUE(cache.Prepare(config, kRuns).ok()) << name;
    for (int run = 0; run < kRuns; ++run) {
      const std::string where =
          std::string(name) + " run " + std::to_string(run);
      auto uncached = BuildScenario(config, run);
      auto cached = cache.Build(config, run);
      ASSERT_TRUE(uncached.ok()) << where;
      ASSERT_TRUE(cached.ok()) << where;
      trace::TraceBuffer uncached_trace(run);
      trace::TraceBuffer cached_trace(run);
      const std::vector<SimulationResult> expected =
          ReplayPaperProtocols(uncached.value(), config, &uncached_trace);
      const std::vector<SimulationResult> actual =
          ReplayPaperProtocols(cached.value(), config, &cached_trace);
      ASSERT_EQ(expected.size(), actual.size()) << where;
      for (size_t i = 0; i < expected.size(); ++i) {
        ExpectResultsIdentical(
            expected[i], actual[i],
            where + " " + AlgorithmName(PaperAlgorithms()[i]));
      }
      ASSERT_FALSE(uncached_trace.empty()) << where;
      EXPECT_EQ(TraceBytes(uncached_trace), TraceBytes(cached_trace))
          << where;
    }
  }
}

TEST(ScenarioCacheDeterminism, RunSweepMatchesPerPointRunExperiment) {
  const std::vector<double> noise = {0.0, 5.0, 40.0};
  std::vector<SweepPoint> points;
  for (double n : noise) {
    SweepPoint point{std::to_string(n), SmallSynthetic()};
    point.config.synthetic.noise_percent = n;
    point.config.threads = 1;
    points.push_back(std::move(point));
  }
  const auto factories = PaperAlgorithms();
  auto sweep = RunSweep(points, {DefaultFactory(factories[0]),
                                 DefaultFactory(factories[1])},
                        3);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  ASSERT_EQ(sweep.value().size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    auto single =
        RunExperiment(points[i].config,
                      std::vector<AlgorithmKind>{factories[0], factories[1]},
                      3);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(sweep.value()[i].x_value, points[i].x_value);
    ExpectAggregateListsIdentical(single.value(),
                                  sweep.value()[i].aggregates,
                                  "point " + points[i].x_value);
  }
}

TEST(ScenarioCacheDeterminism, RunSweepReportsFailingPoint) {
  std::vector<SweepPoint> points;
  SweepPoint good{"64", SmallSynthetic()};
  SweepPoint bad{"zero-range", SmallSynthetic()};
  bad.config.radio_range = 0.001;
  points.push_back(good);
  points.push_back(bad);
  auto sweep = RunSweep(points, {DefaultFactory(PaperAlgorithms()[0])}, 2);
  ASSERT_FALSE(sweep.ok());
  EXPECT_NE(sweep.status().message().find("x=zero-range"), std::string::npos)
      << sweep.status().ToString();
}

}  // namespace
}  // namespace wsnq

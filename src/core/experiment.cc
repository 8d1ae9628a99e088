#include "core/experiment.h"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "net/wave.h"
#include "core/scenario.h"
#include "core/scenario_cache.h"
#include "core/simulation.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace wsnq {

ProtocolFactory DefaultFactory(AlgorithmKind kind) {
  return ProtocolFactory{
      AlgorithmName(kind),
      [kind](int64_t k, int64_t range_min, int64_t range_max,
             const WireFormat& wire) {
        return MakeProtocol(kind, k, range_min, range_max, wire);
      }};
}

namespace {

/// Folds one run's simulation result into an aggregate. Must be called in
/// run-index order on a single thread: RunningStat accumulation is
/// order-sensitive in floating point, and the bit-identical guarantee of
/// the parallel path rests on this fold replaying the exact Add sequence
/// of the serial path. The metrics registry merge obeys the same rule
/// (its gauges are floating-point sums). The discipline is the FoldPhase()
/// capability: callers enter it with a ScopedSerialPhase, so a FoldRun
/// from inside a pool task is a -Wthread-safety compile error.
void FoldRun(const SimulationResult& result, AlgorithmAggregate* agg)
    WSNQ_REQUIRES(FoldPhase()) {
  agg->max_round_energy_mj.Add(result.mean_max_round_energy_mj);
  agg->lifetime_rounds.Add(result.lifetime_rounds);
  agg->packets.Add(result.mean_packets);
  agg->values.Add(result.mean_values);
  agg->refinements.Add(result.mean_refinements);
  agg->rank_error.Add(result.mean_rank_error);
  agg->max_rank_error = std::max(agg->max_rank_error, result.max_rank_error);
  agg->errors += result.errors;
  ++agg->runs;
  if (!result.metrics.empty()) agg->metrics.Merge(result.metrics);
}

/// Folds one run's trace buffer into `sink` (in run order, like FoldRun)
/// and frees its events: a file sink has written them out already.
void FoldAndRelease(trace::TraceSink* sink, trace::TraceBuffer* buffer)
    WSNQ_REQUIRES(FoldPhase()) {
  sink->Fold(*buffer);
  *buffer = trace::TraceBuffer(buffer->run());
}

/// In-order trace folding for the parallel path: runs finish in any
/// order, and each finished run folds every buffer from the oldest
/// unfolded run up to the first one still running.
class TraceFolder {
 public:
  explicit TraceFolder(int runs)
      : finished_(static_cast<size_t>(runs), false) {}

  /// Marks `run` finished and folds whatever prefix of runs is now
  /// complete. The mutex admits one folder at a time and next_ keeps the
  /// folds in run order, which is the fold-phase contract.
  void Finish(int run, trace::TraceSink* sink,
              std::vector<trace::TraceBuffer>* buffers) WSNQ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    finished_[static_cast<size_t>(run)] = true;
    ScopedSerialPhase fold_phase(FoldPhase());
    while (next_ < finished_.size() && finished_[next_]) {
      FoldAndRelease(sink, &(*buffers)[next_]);
      ++next_;
    }
  }

 private:
  Mutex mu_;
  std::vector<bool> finished_ WSNQ_GUARDED_BY(mu_);
  size_t next_ WSNQ_GUARDED_BY(mu_) = 0;
};

/// Builds run `run`'s scenario and replays every factory's protocol over
/// it, writing one result per factory into `results` (pre-sized). The
/// factories of one run share the scenario's Network, so they execute
/// serially inside the run's task; parallelism is across runs only.
/// `buffer` (may be nullptr) collects the run's trace events; it is
/// installed for the whole run so every protocol replay traces into the
/// same per-run logical clock.
Status ExecuteRun(const SimulationConfig& config,
                  const std::vector<ProtocolFactory>& factories, int run,
                  std::vector<SimulationResult>* results,
                  trace::TraceBuffer* buffer, ScenarioCache* cache,
                  int wave_threads) {
  trace::RunScope trace_scope(buffer);
  // Declared before the scenario so the Network never outlives the
  // executor it borrows (it is installed below, not owned).
  std::optional<WaveExecutor> wave_executor;
  StatusOr<Scenario> scenario = [&] {
    // The cache is prepared, so this is assembly only (all artifact
    // lookups hit); the construction cost shows up under
    // experiment/prepare_cache instead.
    prof::ScopedTimer timer("experiment/build_scenario");
    return BuildScenario(config, run, cache);
  }();
  if (!scenario.ok()) return scenario.status();
  if (config.subtree_parallel) {
    // Each run gets its own wave pool so in-run subtree tasks never nest
    // into the run-level pool (which would deadlock its ParallelFor).
    // Oversplitting by 4x keeps the parts load-balanced; the partition
    // never changes a bit of output, only wall-clock.
    wave_executor.emplace(std::max(1, wave_threads),
                          /*target_parts=*/4 * std::max(1, wave_threads));
    scenario.value().network->set_wave_executor(&*wave_executor);
  }
  // Materialize the rounds × vertices value matrix once per run: every
  // factory's replay reads the identical rows instead of re-deriving them
  // per protocol (the values are integers, so this is bit-identical to the
  // lazy path).
  {
    prof::ScopedTimer timer("experiment/materialize_values");
    scenario.value().MaterializeValues(config.rounds + 1);
    // One ascending sensor snapshot per round, shared by every factory's
    // oracle check (core/simulation.cc reads it via SortedSensorsView).
    if (config.check_oracle) scenario.value().MaterializeSortedSensors();
  }
  prof::ScopedTimer timer("experiment/run_protocols");
  for (size_t i = 0; i < factories.size(); ++i) {
    std::unique_ptr<QuantileProtocol> protocol = factories[i].make(
        scenario.value().k, scenario.value().source->range_min(),
        scenario.value().source->range_max(), config.wire);
    (*results)[i] = RunSimulation(scenario.value(), protocol.get(),
                                  config.rounds, config.check_oracle,
                                  /*keep_trail=*/false,
                                  config.collect_metrics);
  }
  return Status::Ok();
}

/// RunExperiment body over a prepared cache, so RunSweep can share one
/// cache across sweep points.
StatusOr<std::vector<AlgorithmAggregate>> RunExperimentImpl(
    const SimulationConfig& config,
    const std::vector<ProtocolFactory>& factories, int runs,
    ScenarioCache* cache) {
  WSNQ_CHECK_GE(runs, 1);
  std::vector<AlgorithmAggregate> aggregates(factories.size());
  for (size_t i = 0; i < factories.size(); ++i) {
    aggregates[i].label = factories[i].label;
  }

  // One trace buffer per run when a --trace sink is installed; buffers are
  // folded into the sink one at a time in run-index order (rebasing their
  // logical ticks), so the serialized trace is bit-identical for every
  // thread count — the same discipline as the aggregate fold below.
  trace::TraceSink* sink = trace::GlobalSink();
  std::vector<trace::TraceBuffer> buffers;
  if (sink != nullptr) {
    buffers.reserve(static_cast<size_t>(runs));
    for (int run = 0; run < runs; ++run) buffers.emplace_back(run);
  }
  const auto buffer_for = [&](int run) {
    return sink != nullptr ? &buffers[static_cast<size_t>(run)] : nullptr;
  };

  const int resolved = ResolveThreads(config.threads);
  const int threads = std::min<int>(resolved, runs);
  // Threads left over after the run-level fan-out go to in-run subtree
  // parallelism (e.g. 8 threads x 4 runs -> 2 wave threads per run). The
  // wave engine's record/replay fold makes the split invisible in every
  // output bit, so this only reshapes where the wall-clock goes.
  const int wave_threads = std::max(1, resolved / std::max(1, threads));
  if (threads <= 1) {
    // Legacy serial path (--threads=1): build, replay, and fold one run at
    // a time; aborts on the first scenario failure.
    std::vector<SimulationResult> results(factories.size());
    for (int run = 0; run < runs; ++run) {
      // Each run is the next to fold, on this thread: its buffer can spill
      // into the sink as it fills.
      if (sink != nullptr) buffers[static_cast<size_t>(run)].SpillTo(sink);
      Status status = ExecuteRun(config, factories, run, &results,
                                 buffer_for(run), cache, wave_threads);
      if (!status.ok()) return status;
      prof::ScopedTimer timer("experiment/fold");
      // Serial path: this thread is the only one running, so the fold-phase
      // claim holds trivially.
      ScopedSerialPhase fold_phase(FoldPhase());
      for (size_t i = 0; i < factories.size(); ++i) {
        FoldRun(results[i], &aggregates[i]);
      }
      if (sink != nullptr) {
        FoldAndRelease(sink, &buffers[static_cast<size_t>(run)]);
      }
    }
    return aggregates;
  }

  // Parallel path: independent runs fan out over the deterministic pool
  // (each run re-derives its seeds from (config.seed, run), so no state is
  // shared between tasks — the cached artifacts they alias are sealed and
  // const); results land in index-addressed slots and are folded on this
  // thread in run order — the same floating-point Add sequence as the
  // serial path, hence bit-identical aggregates for any thread count. On
  // failure ParallelFor reports the smallest failing run index, matching
  // the serial path's first-failure Status.
  std::vector<std::vector<SimulationResult>> results(
      static_cast<size_t>(runs),
      std::vector<SimulationResult>(factories.size()));
  // Trace buffers do not wait for the join: a run's buffer is folded as
  // soon as that run and every earlier one have finished, so a traced
  // sweep holds only the buffers of runs still queued behind an earlier
  // one, not every run's events until the end.
  TraceFolder folder(runs);
  ThreadPool pool(threads);
  Status status = pool.ParallelFor(runs, [&](int64_t run) {
    Status run_status =
        ExecuteRun(config, factories, static_cast<int>(run),
                   &results[static_cast<size_t>(run)],
                   buffer_for(static_cast<int>(run)), cache, wave_threads);
    if (run_status.ok() && sink != nullptr) {
      folder.Finish(static_cast<int>(run), sink, &buffers);
    }
    return run_status;
  });
  if (!status.ok()) return status;
  prof::ScopedTimer timer("experiment/sweep_fold");
  // ParallelFor has returned: every run task is done (happens-before via
  // the pool's join), so this thread may enter the fold phase.
  ScopedSerialPhase fold_phase(FoldPhase());
  for (int run = 0; run < runs; ++run) {
    for (size_t i = 0; i < factories.size(); ++i) {
      FoldRun(results[static_cast<size_t>(run)][i], &aggregates[i]);
    }
  }
  return aggregates;
}

/// Deterministic cache pre-population: runs build in parallel at
/// config.threads into private stores, merged in run-index order; after
/// this the cache is sealed and every lookup is read-only. A Prepare
/// failure is exactly the Status BuildScenario reports for the first
/// failing run.
Status PrepareCache(ScenarioCache* cache, const SimulationConfig& config,
                    int runs) {
  prof::ScopedTimer timer("experiment/prepare_cache");
  return cache->Prepare(config, runs);
}

}  // namespace

StatusOr<std::vector<AlgorithmAggregate>> RunExperiment(
    const SimulationConfig& config,
    const std::vector<ProtocolFactory>& factories, int runs) {
  ScenarioCache cache;
  Status status = PrepareCache(&cache, config, runs);
  if (!status.ok()) return status;
  return RunExperimentImpl(config, factories, runs, &cache);
}

StatusOr<std::vector<SweepPointResult>> RunSweep(
    const std::vector<SweepPoint>& points,
    const std::vector<ProtocolFactory>& factories, int runs) {
  ScenarioCache cache;  // one cache spanning every sweep point
  std::vector<SweepPointResult> results;
  results.reserve(points.size());
  for (const SweepPoint& point : points) {
    Status status = PrepareCache(&cache, point.config, runs);
    StatusOr<std::vector<AlgorithmAggregate>> aggregates =
        status.ok() ? RunExperimentImpl(point.config, factories, runs, &cache)
                    : StatusOr<std::vector<AlgorithmAggregate>>(status);
    if (!aggregates.ok()) {
      return Status(aggregates.status().code(),
                    "sweep point x=" + point.x_value + ": " +
                        aggregates.status().message());
    }
    results.push_back(
        SweepPointResult{point.x_value, std::move(aggregates).value()});
  }
  return results;
}

StatusOr<std::vector<AlgorithmAggregate>> RunExperiment(
    const SimulationConfig& config,
    const std::vector<AlgorithmKind>& algorithms, int runs) {
  std::vector<ProtocolFactory> factories;
  factories.reserve(algorithms.size());
  for (AlgorithmKind kind : algorithms) {
    factories.push_back(DefaultFactory(kind));
  }
  return RunExperiment(config, factories, runs);
}

int ResolveThreads(int requested) {
  return requested > 0 ? requested : ThreadPool::DefaultThreadCount();
}

namespace {

int IntFromEnv(const char* name, int fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): startup-time config read
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  const int parsed = std::atoi(raw);
  return parsed > 0 ? parsed : fallback;
}

}  // namespace

int RunsFromEnv(int fallback) { return IntFromEnv("WSNQ_RUNS", fallback); }
int RoundsFromEnv(int fallback) {
  return IntFromEnv("WSNQ_ROUNDS", fallback);
}

}  // namespace wsnq

#include "core/scenario_cache.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/experiment.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace wsnq {
namespace internal {

namespace {

/// Formats into a std::string; doubles use the hexfloat conversion (%a) at
/// the call sites so key equality is bit-exact, never rounded.
template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

}  // namespace

std::string SyntheticDeploymentKey(const SimulationConfig& config, int run) {
  return Format("syn-deploy|seed=%llu|run=%d|n=%d|vpn=%d|w=%a|h=%a|rho=%a",
                static_cast<unsigned long long>(config.seed), run,
                config.num_sensors, config.values_per_node, config.area_width,
                config.area_height, config.radio_range);
}

std::string SyntheticSourceKey(const SimulationConfig& config, int run) {
  // The trace reads the deployment's normalized positions and a seed
  // derived from (config.seed, run) — both covered by the deployment key
  // prefix. config.synthetic.seed is overridden by BuildScenario and
  // deliberately absent.
  return SyntheticDeploymentKey(config, run) +
         Format("|src|rmin=%lld|rmax=%lld|per=%a|noise=%a|amp=%a",
                static_cast<long long>(config.synthetic.range_min),
                static_cast<long long>(config.synthetic.range_max),
                config.synthetic.period_rounds, config.synthetic.noise_percent,
                config.synthetic.amplitude_fraction);
}

std::string PressureTraceKey(const SimulationConfig& config) {
  const PressureTrace::Options& p = config.pressure;
  // BuildScenario sizes the trace to exactly config.rounds + 2; the key must
  // use that *effective* round count, because the generator draws the whole
  // regional series before the per-station terms — every sample depends on
  // how many samples exist.
  const int64_t effective_rounds = config.rounds + 2;
  // The stored trace is canonical (BuildScenario folds skip into max_skip),
  // so only the coverage stride shapes the sample grid: every skip point a
  // sweep's max_skip covers hits the same trace, SOM placement, and trees.
  const int coverage = std::max(p.skip, p.max_skip);
  return Format("pt|seed=%llu|st=%d|rounds=%lld|cov=%d|range=%d|mean=%a|"
                "tsig=%a|ttau=%a|ptau=%a|osig=%a|ssig=%a|stau=%a|damp=%a|"
                "spd=%a",
                static_cast<unsigned long long>(config.seed), p.num_stations,
                static_cast<long long>(effective_rounds), coverage,
                static_cast<int>(p.range_setting), p.mean_pressure,
                p.trend_sigma, p.trend_tau_samples, p.pressure_tau_samples,
                p.station_offset_sigma, p.station_sigma, p.station_tau_samples,
                p.diurnal_amplitude, p.samples_per_day);
}

std::string PressureWorkloadKey(const SimulationConfig& config) {
  return PressureTraceKey(config) +
         Format("|sb=%d", config.pressure_scale_bits);
}

std::string PressureDeploymentKey(const SimulationConfig& config) {
  // The SOM features are the trace's first measurements, so the placement
  // inherits the full trace key. Skip points under one coverage stride
  // share the sample grid and therefore the placement; distinct coverages
  // do not — the generator's draw order makes even sample 0 depend on the
  // grid size.
  return PressureTraceKey(config) + Format("|deploy|w=%a|h=%a|rho=%a",
                                           config.area_width,
                                           config.area_height,
                                           config.radio_range);
}

std::string RoutingTreeKey(const std::string& deployment_key, int root,
                           ParentSelection strategy, uint64_t salt) {
  return deployment_key +
         Format("|tree|root=%d|strat=%d|salt=%llu", root,
                static_cast<int>(strategy),
                static_cast<unsigned long long>(salt));
}

}  // namespace internal

/// One run's private artifact store during Prepare. Lookups read through
/// to the shared map, which nobody mutates while runs build; Puts stay
/// local (BuildScenario looks each key up once per run, before building
/// it). Every call is logged in order, so Merge can replay the run against
/// the shared map exactly as a serial pass would have made it.
class ScenarioCache::RunStore final : public internal::ArtifactStore {
 public:
  /// One store call: a lookup (value == nullptr) or a Put.
  struct Event {
    std::string key;
    std::shared_ptr<const void> value;
  };

  explicit RunStore(const ScenarioCache* shared) : shared_(shared) {}

  std::shared_ptr<const void> Get(const std::string& key) const override {
    events_.push_back({key, nullptr});
    return shared_->Find(key);
  }

  void Put(const std::string& key,
           std::shared_ptr<const void> value) override {
    events_.push_back({key, std::move(value)});
  }

  const std::vector<Event>& events() const { return events_; }

 private:
  const ScenarioCache* shared_;
  mutable std::vector<Event> events_;
};

void ScenarioCache::Merge(const RunStore& store) {
  AssertPreparePhase();
  // A lookup counts against everything built before it — earlier runs and
  // this run's earlier Puts — just as in a serial pass.
  for (const RunStore::Event& event : store.events()) {
    if (event.value != nullptr) {
      entries_.emplace(event.key, event.value);  // first build wins
    } else {
      (entries_.count(event.key) > 0 ? hits_ : misses_)
          .fetch_add(1, std::memory_order_relaxed);
    }
  }
}

Status ScenarioCache::Prepare(const SimulationConfig& config, int runs) {
  sealed_ = false;
  // Each run builds (and discards) its full scenario into a private store:
  // every shareable artifact it needs lands there as a side effect. The
  // stores are merged here, in run order, up to the first failing run.
  std::vector<RunStore> stores(static_cast<size_t>(std::max(runs, 0)),
                               RunStore(this));
  std::vector<Status> statuses(stores.size());
  const auto build = [&](int run) {
    statuses[static_cast<size_t>(run)] =
        BuildScenario(config, run, &stores[static_cast<size_t>(run)])
            .status();
  };
  int merged = 0;
  Status result;
  // Merges runs [merged, end); false once a failing run was merged.
  const auto merge_through = [&](int end) {
    for (; merged < end; ++merged) {
      Merge(stores[static_cast<size_t>(merged)]);
      if (!statuses[static_cast<size_t>(merged)].ok()) {
        result = statuses[static_cast<size_t>(merged)];
        return false;
      }
    }
    return true;
  };
  if (runs > 0) {
    // Run 0 alone first: artifacts that do not depend on the run (the
    // pressure trace and SOM deployment) are then in the shared map, so
    // the fanned-out runs read them instead of each building a copy. A
    // pool of one thread runs the rest inline, in run order.
    build(0);
    if (merge_through(1)) {
      ThreadPool pool(
          std::max(std::min(ResolveThreads(config.threads), runs - 1), 1));
      // Failures are collected per run, so every task reports OK here.
      (void)pool.ParallelFor(runs - 1, [&](int64_t i) {
        build(static_cast<int>(i) + 1);
        return Status::Ok();
      });
      merge_through(runs);
    }
  }
  sealed_ = true;
  return result;
}

StatusOr<Scenario> ScenarioCache::Build(const SimulationConfig& config,
                                        int run) {
  return BuildScenario(config, run, this);
}

void ScenarioCache::AssertPreparePhase() {
  // The dynamic half of the phase capability: mutation is only legal while
  // unsealed, i.e. inside Prepare()'s run-order merge.
  WSNQ_DCHECK(!sealed_);
}

std::shared_ptr<const void> ScenarioCache::Find(const std::string& key) const {
  AssertReadPhase();
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second;
}

std::vector<std::string> ScenarioCache::Keys() const {
  AssertReadPhase();
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const auto& entry : entries_) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::shared_ptr<const void> ScenarioCache::Get(const std::string& key) const {
  std::shared_ptr<const void> value = Find(key);
  (value == nullptr ? misses_ : hits_).fetch_add(1, std::memory_order_relaxed);
  return value;
}

void ScenarioCache::Put(const std::string& key,
                        std::shared_ptr<const void> value) {
  if (sealed_) {
    // Read-only phase: the builder keeps its fresh artifact; the map stays
    // untouched so concurrent Gets need no locking.
    sealed_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  AssertPreparePhase();
  entries_.emplace(key, std::move(value));  // first build wins
}

}  // namespace wsnq

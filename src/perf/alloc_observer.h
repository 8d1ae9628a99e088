// Allocation accounting for the profiling layer (docs/observability.md,
// "Allocation accounting").
//
// When the tree is configured with -DWSNQ_PERF_ALLOC=ON (CMake option
// WSNQ_PERF_ALLOC; the hooks are compiled out otherwise), this
// translation unit replaces the global operator new/delete with thin
// wrappers that bump two thread-local counters — allocations and bytes
// requested — before delegating to malloc/free. perf::StageCollector
// snapshots the counters at span begin/end and charges the delta to the
// enclosing profile stage, which makes "how much does this stage
// allocate?" (the ROADMAP's pointer-chasing-vs-SoA question about
// per-node protocol state) a measured number instead of a guess.
//
// The hooks never allocate, never lock, and never read a clock: a build
// with them enabled produces byte-identical deterministic stdout (pinned
// by the bench stdout-determinism ctest leg). They are a measurement
// build, not a default: don't combine with sanitizer presets — ASan wants
// to intercept allocation itself (src/CMakeLists.txt warns).

#ifndef WSNQ_PERF_ALLOC_OBSERVER_H_
#define WSNQ_PERF_ALLOC_OBSERVER_H_

#include <cstdint>

namespace wsnq {
namespace perf {

/// Monotonic per-thread allocation totals since thread start. Zeros (and
/// never advancing) when the hooks are compiled out.
struct AllocSnapshot {
  int64_t count = 0;
  int64_t bytes = 0;
};

/// True when this build replaces operator new/delete (WSNQ_PERF_ALLOC).
bool AllocHooksCompiledIn();

/// Reads the calling thread's allocation totals.
AllocSnapshot ThreadAllocSnapshot();

}  // namespace perf
}  // namespace wsnq

#endif  // WSNQ_PERF_ALLOC_OBSERVER_H_

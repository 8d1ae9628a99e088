// Hardware performance counters for the profiling layer, built on Linux
// perf_event_open (docs/observability.md, "Hardware counters").
//
// A CounterSet opens one per-thread counter group — cycles, instructions,
// cache misses, branch misses, and the software task clock — and reads
// point-in-time snapshots that perf::StageCollector turns into per-span
// deltas. Availability is a property of the host, not of the build:
// containers commonly deny the syscall (kernel.perf_event_paranoid, 1-CPU
// cgroups, seccomp), and some VMs expose no PMU at all, so every event is
// individually optional and a fully denied set degrades to ok() == false
// with a recorded reason. Callers treat that as "wall-clock-only
// profiling", never as an error — the fallback is a first-class, tested
// path (tests/perf_test.cc).
//
// This file is part of src/perf/, the sole sanctioned home of
// perf_event_open and the raw syscall() it needs (wsnq-lint rule
// `perf-syscall`).

#ifndef WSNQ_PERF_COUNTERS_H_
#define WSNQ_PERF_COUNTERS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wsnq {
namespace perf {

/// One point-in-time reading of the calling thread's counters. Events the
/// kernel denied (or that the platform lacks) read as -1; task_clock_ns is
/// a software event and is available whenever the syscall itself is.
struct CounterReading {
  /// False when the whole set is unavailable (every field is -1).
  bool valid = false;
  int64_t cycles = -1;
  int64_t instructions = -1;
  int64_t cache_misses = -1;
  int64_t branch_misses = -1;
  int64_t task_clock_ns = -1;
};

/// A set of per-thread perf_event file descriptors. Not thread-safe and
/// thread-affine: construct and Read() on the same thread (StageCollector
/// keeps one per worker in a thread_local).
class CounterSet {
 public:
  /// Events a set tries to open: CounterReading's five fields.
  static constexpr int kEvents = 5;

  /// Opens the counters for the calling thread. Never fails hard: check
  /// ok() afterwards; error() says why the set (or part of it) is missing.
  CounterSet();
  ~CounterSet();
  CounterSet(const CounterSet&) = delete;
  CounterSet& operator=(const CounterSet&) = delete;

  /// True when at least one event opened; Read() then yields valid
  /// readings for exactly the opened events.
  bool ok() const { return ok_; }
  /// Human-readable reason when !ok() (e.g. "perf_event_open: EPERM"),
  /// empty otherwise.
  const std::string& error() const { return error_; }

  /// Names of the events that opened ("cycles", ..., "task-clock"), in
  /// CounterReading field order; empty when !ok().
  std::vector<std::string> OpenedEvents() const;

  /// Reads the current counter values (valid == ok()).
  CounterReading Read() const;

  /// Compiled-in platform support (Linux with <linux/perf_event.h>).
  static bool Supported();

  /// Test seam: when set, every subsequent CounterSet construction behaves
  /// as if perf_event_open returned EPERM — the graceful-fallback path the
  /// dev container may or may not take naturally becomes deterministic
  /// under test (tests/perf_test.cc).
  static void ForceUnavailableForTest(bool force);

 private:
  int fds_[kEvents];
  bool ok_ = false;
  std::string error_;
};

}  // namespace perf
}  // namespace wsnq

#endif  // WSNQ_PERF_COUNTERS_H_

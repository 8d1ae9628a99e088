// In-memory span recorder for the benchmark's traced runs.
//
// A span is one timed call into a layer of the program under test, named
// "<layer>.<what>" (core.build_scenario, algo.IQ.run, serve.tick_round...).
// Spans are appended to a per-thread buffer and linked to the span that
// was open on the same thread when they began, so run.py can compute each
// layer's self time (span time minus the time its child spans cover).
// Nothing is written until the run ends. With tracing disabled, a
// ScopedSpan costs one relaxed atomic load.
//
// A span around a call that may block (a poll loop waiting for input)
// records the thread CPU time it used as well, so that run.py charges the
// layer for its work and not for the wait.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock since the first call in this process.
double Now();

/// CPU seconds consumed by the calling thread.
double ThreadCpuSeconds();

/// CPU seconds consumed by all threads of this process. Unlike the wall
/// clock it does not advance while the hypervisor runs other tenants on
/// this VM's CPUs (steal time).
double ProcessCpuSeconds();

/// One completed span. `name` must outlive the recorder (string literals
/// or names interned with InternName).
struct Span {
  const char* name = nullptr;
  int64_t parent = -1;  ///< index into the same thread's spans, or -1
  int thread = 0;
  double start = 0.0;
  double end = 0.0;
  /// Thread CPU seconds used inside the span; -1 when only wall time was
  /// recorded.
  double cpu = -1.0;
};

/// Turns recording on or off process-wide (off by default).
void SetTracing(bool on);
bool Tracing();

/// Stable storage for a name built at run time ("algo.IQ.run").
const char* InternName(const std::string& name);

/// Records one span on the calling thread while tracing is on.
class ScopedSpan {
 public:
  enum class Charge { kWall, kCpu };
  explicit ScopedSpan(const char* name, Charge charge = Charge::kWall);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_ = -1;
  double cpu_start_ = -1.0;  ///< >= 0 when charging CPU time
};

/// Every span recorded so far, thread by thread. Call after all
/// recording threads have been joined.
std::vector<Span> CollectSpans();

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_

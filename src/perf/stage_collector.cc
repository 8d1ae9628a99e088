#include "perf/stage_collector.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "perf/alloc_observer.h"
#include "perf/counters.h"
#include "util/check.h"

namespace wsnq {
namespace perf {

namespace {

struct SpanSnapshot {
  CounterReading counters;
  AllocSnapshot allocs;
};

/// Per-thread open-span stack: BeginSpan pushes, EndSpan pops. Spans are
/// RAII ScopedTimers, so begin/end strictly nest per thread.
thread_local std::vector<SpanSnapshot> t_spans;

/// Per-thread counter group, opened on the thread's first span. Unique_ptr
/// so a thread that never profiles never opens fds.
thread_local std::unique_ptr<CounterSet> t_counters;

std::atomic<bool> g_counters_observed{false};

CounterSet& ThreadCounters() {
  if (t_counters == nullptr) {
    t_counters = std::make_unique<CounterSet>();
    if (t_counters->ok()) {
      g_counters_observed.store(true, std::memory_order_relaxed);
    }
  }
  return *t_counters;
}

/// Delta of one optional counter: -1 (unavailable) on either side stays
/// -1, so the report can say "unavailable" instead of a made-up 0.
int64_t Delta(int64_t begin, int64_t end) {
  if (begin < 0 || end < 0) return -1;
  return end >= begin ? end - begin : 0;
}

}  // namespace

uint64_t StageCollector::BeginSpan() {
  SpanSnapshot snapshot;
  snapshot.counters = ThreadCounters().Read();
  snapshot.allocs = ThreadAllocSnapshot();
  t_spans.push_back(snapshot);
  return t_spans.size() - 1;
}

void StageCollector::EndSpan(uint64_t token, prof::StageExtras* extras) {
  WSNQ_CHECK_LT(token, t_spans.size());
  WSNQ_CHECK_EQ(token, t_spans.size() - 1);  // spans strictly nest (RAII)
  const SpanSnapshot begin = t_spans.back();
  t_spans.pop_back();
  const CounterReading end = ThreadCounters().Read();
  if (begin.counters.valid && end.valid) {
    extras->counter_spans = 1;
    extras->cycles = Delta(begin.counters.cycles, end.cycles);
    extras->instructions = Delta(begin.counters.instructions,
                                 end.instructions);
    extras->cache_misses = Delta(begin.counters.cache_misses,
                                 end.cache_misses);
    extras->branch_misses = Delta(begin.counters.branch_misses,
                                  end.branch_misses);
    const int64_t task_clock_ns =
        Delta(begin.counters.task_clock_ns, end.task_clock_ns);
    extras->task_clock_s =
        task_clock_ns < 0 ? -1.0 : static_cast<double>(task_clock_ns) * 1e-9;
  }
  if (AllocHooksCompiledIn()) {
    const AllocSnapshot now = ThreadAllocSnapshot();
    extras->alloc_spans = 1;
    extras->alloc_count = now.count - begin.allocs.count;
    extras->alloc_bytes = now.bytes - begin.allocs.bytes;
  }
}

bool StageCollector::CountersObserved() {
  return g_counters_observed.load(std::memory_order_relaxed);
}

std::string InstallStageCollector() {
  static StageCollector collector;
  prof::SetStageObserver(&collector);
  // Probe this thread's counters now so the returned status reflects what
  // spans will actually see (and so the common single-threaded case opens
  // its fds outside any timed region).
  CounterSet& counters = ThreadCounters();
  std::string status = "# perf counters=";
  const std::vector<std::string> opened = counters.OpenedEvents();
  if (opened.size() == static_cast<size_t>(CounterSet::kEvents)) {
    status += "on";
  } else if (!opened.empty()) {
    // Name what opened: the missing events report as null, not as 0.
    status += "partial(";
    for (size_t i = 0; i < opened.size(); ++i) {
      status += (i == 0 ? "" : ",") + opened[i];
    }
    status += ")";
  } else {
    status += "off (" + counters.error() + "; wall-clock-only stats)";
  }
  status += AllocHooksCompiledIn() ? " alloc_hooks=on" : " alloc_hooks=off";
  return status;
}

void UninstallStageCollectorForTest() { prof::SetStageObserver(nullptr); }

void ResetThreadCountersForTest() {
  WSNQ_CHECK(t_spans.empty());  // never drop counters under an open span
  t_counters.reset();
}

}  // namespace perf
}  // namespace wsnq

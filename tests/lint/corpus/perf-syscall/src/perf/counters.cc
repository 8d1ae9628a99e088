// wsnq-lint corpus: perf-syscall has no allowlist, so counter plumbing is
// banned under src/perf/ too. NOT compiled.

#include <linux/perf_event.h>  // lint-expect: perf-syscall
#include <sys/syscall.h>
#include <unistd.h>

int OpenCycles() {
  perf_event_attr attr = {};  // lint-expect: perf-syscall
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = PERF_COUNT_HW_CPU_CYCLES;  // lint-expect: perf-syscall
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));  // lint-expect: perf-syscall
}

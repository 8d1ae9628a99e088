// wsnq-lint corpus: perf-syscall. The kernel counter header and its ioctl
// constants are counter plumbing too, wherever they appear. NOT compiled.

#include <linux/perf_event.h>  // lint-expect: perf-syscall
#include <sys/ioctl.h>

int EnableCounter(int fd) {
  return ioctl(fd, PERF_EVENT_IOC_ENABLE, 0);  // lint-expect: perf-syscall
}

#include "perf/counters.h"

#include <atomic>
#include <cerrno>
#include <cstring>

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#define WSNQ_PERF_COUNTERS_SUPPORTED 1
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#define WSNQ_PERF_COUNTERS_SUPPORTED 0
#endif

namespace wsnq {
namespace perf {

namespace {

std::atomic<bool> g_force_unavailable{false};

#if WSNQ_PERF_COUNTERS_SUPPORTED

struct EventSpec {
  uint32_t type;
  uint64_t config;
  const char* name;
};

// Order matches CounterReading's fields; task-clock last so a PMU-less
// host (software events only) still yields a partially ok() set.
constexpr EventSpec kEventSpecs[] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, "cycles"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, "instructions"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES, "cache-misses"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, "branch-misses"},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, "task-clock"},
};

int OpenEvent(const EventSpec& spec) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = spec.type;
  attr.size = sizeof(attr);
  attr.config = spec.config;
  attr.disabled = 0;
  // Counting user-space only keeps the syscall usable at
  // kernel.perf_event_paranoid <= 2 (the common unprivileged setting).
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  // pid = 0, cpu = -1: this thread, any CPU it migrates to.
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
}

int64_t ReadEvent(int fd) {
  if (fd < 0) return -1;
  uint64_t value = 0;
  const ssize_t n = read(fd, &value, sizeof(value));
  if (n != static_cast<ssize_t>(sizeof(value))) return -1;
  return static_cast<int64_t>(value);
}

#endif  // WSNQ_PERF_COUNTERS_SUPPORTED

}  // namespace

CounterSet::CounterSet() {
  for (int i = 0; i < kEvents; ++i) fds_[i] = -1;
  if (g_force_unavailable.load(std::memory_order_relaxed)) {
    error_ = "perf_event_open: EPERM (forced for test)";
    return;
  }
#if WSNQ_PERF_COUNTERS_SUPPORTED
  int first_errno = 0;
  for (int i = 0; i < kEvents; ++i) {
    fds_[i] = OpenEvent(kEventSpecs[i]);
    if (fds_[i] >= 0) {
      ok_ = true;
    } else if (first_errno == 0) {
      first_errno = errno;
    }
  }
  if (!ok_) {
    error_ = std::string("perf_event_open: ") +
             (first_errno != 0 ? std::strerror(first_errno) : "failed");
  }
#else
  error_ = "perf_event_open: unsupported platform";
#endif
}

CounterSet::~CounterSet() {
#if WSNQ_PERF_COUNTERS_SUPPORTED
  for (int i = 0; i < kEvents; ++i) {
    if (fds_[i] >= 0) close(fds_[i]);
  }
#endif
}

CounterReading CounterSet::Read() const {
  CounterReading reading;
  if (!ok_) return reading;
#if WSNQ_PERF_COUNTERS_SUPPORTED
  reading.valid = true;
  reading.cycles = ReadEvent(fds_[0]);
  reading.instructions = ReadEvent(fds_[1]);
  reading.cache_misses = ReadEvent(fds_[2]);
  reading.branch_misses = ReadEvent(fds_[3]);
  reading.task_clock_ns = ReadEvent(fds_[4]);
#endif
  return reading;
}

std::vector<std::string> CounterSet::OpenedEvents() const {
  std::vector<std::string> names;
#if WSNQ_PERF_COUNTERS_SUPPORTED
  for (int i = 0; i < kEvents; ++i) {
    if (fds_[i] >= 0) names.push_back(kEventSpecs[i].name);
  }
#endif
  return names;
}

bool CounterSet::Supported() { return WSNQ_PERF_COUNTERS_SUPPORTED != 0; }

void CounterSet::ForceUnavailableForTest(bool force) {
  g_force_unavailable.store(force, std::memory_order_relaxed);
}

}  // namespace perf
}  // namespace wsnq

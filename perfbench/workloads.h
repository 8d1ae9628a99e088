// The benchmark's workloads. Each Run* function generates its inputs from
// the seed, runs the set-up and measured phases, checks the outputs, and
// appends its raw measurements to the open JSON object in `out`; run.py
// turns them into metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "json_writer.h"

namespace perfbench {

struct BenchArgs {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10.0;
  /// Traced run: alternate traced and untraced units of work, record
  /// spans, and run the layer probes after the measured phase.
  bool trace = false;
};

/// CPUs this process may run on.
inline int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// FNV-1a over `s`, continuing from `h`; digests of simulated outputs.
constexpr uint64_t kFnvOffset = 14695981039346656037ull;
inline uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

bool IsSimWorkload(const std::string& name);
bool IsServeWorkload(const std::string& name);

/// paper-default, scale-64k and pressure-arq: the simulator.
/// Returns false when the workload could not run at all.
bool RunSimWorkload(const BenchArgs& args, JsonWriter* out);

/// serve-churn: the daemon with loopback clients in this process.
bool RunServeWorkload(const BenchArgs& args, JsonWriter* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

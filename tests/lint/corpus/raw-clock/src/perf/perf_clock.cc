// wsnq-lint corpus: src/perf/ (the measurement layer) is not on the
// raw-clock allowlist. Its harness times through prof::WallSeconds like
// every other caller, so a raw clock read here is a finding. NOT compiled.

#include <chrono>

double HarnessStamp() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())  // lint-expect: raw-clock
      .count();
}

// wsnq-lint corpus: perf-syscall — hardware-counter plumbing
// (perf_event_open, raw syscall(), the perf_event_attr struct) is banned
// everywhere; profiling reads thread CPU time through prof::ScopedTimer.
// The alias leg pins name resolution: a typedef'd attr struct is caught
// with no banned spelling at the use site. NOT compiled.

namespace corpus {

using Attr = perf_event_attr;  // lint-expect: perf-syscall

long OpenCounterDirect() {
  perf_event_attr attr = {};  // lint-expect: perf-syscall
  return perf_event_open(&attr, 0, -1, -1, 0);  // lint-expect: perf-syscall
}

long OpenCounterAliased() {
  Attr attr = {};  // lint-expect: perf-syscall
  return syscall(298, &attr, 0, -1, -1, 0);  // lint-expect: perf-syscall
}

// Negatives: naming the syscall in prose or a diagnostic string is not a
// use, and a member *named* syscall is not the libc entry point.
const char* kHint = "counters come from perf_event_open(2)";
struct Gadget {
  int syscall = 0;
};
int ReadsField(const Gadget& g) { return g.syscall; }

}  // namespace corpus

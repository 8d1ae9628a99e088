// wsnq-lint corpus: the thread pool may spawn threads (raw-thread) but is
// not a sanctioned clock site: its per-worker spans time through
// prof::WallSeconds. NOT compiled.

#include <chrono>

long WorkerSpanStart() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // lint-expect: raw-clock
}

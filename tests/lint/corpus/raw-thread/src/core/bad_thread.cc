// wsnq-lint corpus: raw-thread. Ad-hoc threads outside
// src/util/thread_pool.* bypass the deterministic fan-out/ordered-fold
// discipline. NOT compiled.

#include <future>
#include <thread>

void Spawn() {
  std::thread worker([] {});  // lint-expect: raw-thread
  auto pending = std::async([] { return 1; });  // lint-expect: raw-thread
  (void)pending;
  worker.join();
}

// Naming std::async without calling it still reaches for a raw thread.
auto* const kLauncher = &std::async<int (*)()>;  // lint-expect: raw-thread

// Negatives: observing threads is fine; only spawning them is banned.
std::thread::id SelfId();

void Tag() { std::this_thread::yield(); }

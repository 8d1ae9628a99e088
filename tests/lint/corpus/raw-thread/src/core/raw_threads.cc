// wsnq-lint corpus: raw-thread — std::thread spelled directly,
// through a namespace alias, and as pthread_create; negatives for
// std::thread::id / std::this_thread (observing threads is fine, only
// spawning them is banned). NOT compiled.

#include <pthread.h>

#include <future>
#include <thread>

namespace corpus {

namespace stdlib = std;

void* Body(void*) { return nullptr; }

void SpawnDirect() {
  std::thread worker(Body, nullptr);  // lint-expect: raw-thread
  worker.join();
}

void SpawnViaNamespaceAlias() {
  stdlib::thread worker(Body, nullptr);  // lint-expect: raw-thread
  worker.join();
}

void SpawnPosix() {
  pthread_t tid;
  pthread_create(&tid, nullptr, Body, nullptr);  // lint-expect: raw-thread
  pthread_join(tid, nullptr);
}

int SpawnAsync() {
  auto f = std::async(Body, nullptr);  // lint-expect: raw-thread
  return 0;
}

// Negatives: thread *identity* observation.
std::thread::id SelfId() { return std::this_thread::get_id(); }

}  // namespace corpus

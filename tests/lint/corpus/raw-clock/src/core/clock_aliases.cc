// wsnq-lint corpus: raw-clock resolves aliases — `using clk =
// std::chrono::steady_clock; clk::now()` is caught even though no banned
// spelling appears at the call site — and bans the POSIX clock calls too.
// NOT compiled.

#include <sys/time.h>

#include <chrono>
#include <ctime>

namespace corpus {

using Clock = std::chrono::steady_clock;
using clk = std::chrono::steady_clock;
namespace krono = std::chrono;

long AliasedNow() {
  return Clock::now().time_since_epoch().count();  // lint-expect: raw-clock
}

long ShortAliasedNow() {
  return clk::now().time_since_epoch().count();  // lint-expect: raw-clock
}

long NamespaceAliasedNow() {
  return krono::system_clock::now().time_since_epoch().count();  // lint-expect: raw-clock
}

long PosixClock() {
  struct timespec ts {};
  clock_gettime(0, &ts);  // lint-expect: raw-clock
  return ts.tv_sec;
}

long PosixWallClock() {
  struct timeval tv {};
  gettimeofday(&tv, nullptr);  // lint-expect: raw-clock
  struct timespec ts {};
  std::timespec_get(&ts, 1);  // lint-expect: raw-clock
  return tv.tv_sec + ts.tv_sec;
}

// Negatives: clock-ish names that are not clock reads stay quiet — the
// alias declaration itself (no ::now), and ordinary helper calls.
long WallSecondsLike() { return 0; }
long UsesHelper() { return WallSecondsLike(); }

}  // namespace corpus

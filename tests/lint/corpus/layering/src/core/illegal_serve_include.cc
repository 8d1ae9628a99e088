// wsnq-lint corpus: layering — nothing under src/ may include serve/
// back. The simulation core must stay transport-free: a core that knows
// about subscriptions or sockets can no longer be embedded, checked, or
// benchmarked without a daemon around it. NOT compiled.

#include "core/config.h"
#include "serve/broker.h"  // lint-expect: layering
#include "serve/wire.h"  // lint-expect: layering
#include "util/status.h"

namespace corpus {
int LayeringFixtureCoreServe() { return 0; }
}  // namespace corpus

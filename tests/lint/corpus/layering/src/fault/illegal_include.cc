// wsnq-lint corpus: layering — the model checker (mc) sits on top of
// fault; an include of mc/ from fault inverts the DAG (the checker must
// observe, never shape, the production stack). NOT compiled.

#include "fault/fault_plan.h"
#include "mc/mc.h"  // lint-expect: layering

namespace corpus {
int LayeringFixtureFault() { return 0; }
}  // namespace corpus

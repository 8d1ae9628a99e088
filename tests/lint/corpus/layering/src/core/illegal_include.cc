// wsnq-lint corpus: layering — core sits above algo/sketch/data/fault
// in the DAG and may never reach into bench (or tests/tools/examples).
// The measurement layer is also off-limits: simulation results must not
// depend on how they are measured, so only bench/tests/tools may include
// perf/. NOT compiled.

#include "bench/bench_common.h"  // lint-expect: layering
#include "core/config.h"
#include "perf/bench_harness.h"  // lint-expect: layering
#include "util/status.h"

namespace corpus {
int LayeringFixtureCore() { return 0; }
}  // namespace corpus

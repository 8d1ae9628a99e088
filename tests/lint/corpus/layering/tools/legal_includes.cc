// wsnq-lint corpus: layering negatives — tools sit above the whole stack
// and may include any src/ layer, with no diagnostics. NOT compiled.

#include "core/report.h"
#include "perf/bench_harness.h"
#include "serve/client.h"
#include "util/status.h"

namespace corpus {
int LegalIncludesFixtureTools() { return 0; }
}  // namespace corpus

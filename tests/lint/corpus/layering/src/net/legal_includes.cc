// wsnq-lint corpus: layering negatives — net -> net, net -> util, and
// third-party includes are all legal and must produce no diagnostics.
// NOT compiled.

#include <gtest/gtest.h>

#include "net/geometry.h"
#include "net/radio_graph.h"
#include "util/status.h"

namespace corpus {
int LegalIncludesFixture() { return 0; }
}  // namespace corpus

// Deterministic routing-tree repair after node churn. Rebuilds a
// hop-optimal tree over the *live* subgraph, reusing the parent-selection
// policies of net/spanning_tree.h; dead or unreachable vertices are
// detached (parent -1, absent from the traversal orders), so protocols
// iterating pre/post order never visit them. Repair is acyclic by
// construction — every parent sits exactly one BFS level above its child —
// and a pure function of (graph, alive set, policy, key), so every thread
// count and replay produces the identical repaired tree.

#ifndef WSNQ_FAULT_TREE_REPAIR_H_
#define WSNQ_FAULT_TREE_REPAIR_H_

#include <cstdint>
#include <vector>

#include "net/radio_graph.h"
#include "net/spanning_tree.h"

namespace wsnq {

/// Builds the repaired routing tree of `graph` restricted to vertices with
/// `alive[v] != 0`, rooted at `root` (which must be alive). `selection`
/// picks among min-hop live parent candidates exactly as BuildRoutingTree
/// does; for ParentSelection::kRandom the choice is a counter-based hash of
/// (key, external id) instead of a sequential stream. Detached vertices get
/// parent -1, depth 0, no children, and are excluded from pre/post order.
SpanningTree RepairTree(const RadioGraph& graph, int root,
                        const std::vector<char>& alive,
                        ParentSelection selection, uint64_t key);

}  // namespace wsnq

#endif  // WSNQ_FAULT_TREE_REPAIR_H_

#include "fault/tree_repair.h"

#include <algorithm>
#include <queue>

#include "fault/fault_key.h"
#include "net/geometry.h"
#include "util/check.h"

namespace wsnq {

SpanningTree RepairTree(const RadioGraph& graph, int root,
                        const std::vector<char>& alive,
                        ParentSelection selection, uint64_t key) {
  const int n = graph.size();
  WSNQ_CHECK_GE(root, 0);
  WSNQ_CHECK_LT(root, n);
  WSNQ_CHECK_EQ(static_cast<int>(alive.size()), n);
  WSNQ_CHECK(alive[static_cast<size_t>(root)] != 0);  // the sink never dies

  SpanningTree tree;
  tree.root = root;

  // BFS hop distances from the root over the live subgraph; -1 when the
  // vertex is dead or cut off from the root by dead vertices.
  std::vector<int> depth(static_cast<size_t>(n), -1);
  std::queue<int> frontier;
  frontier.push(root);
  depth[static_cast<size_t>(root)] = 0;
  while (!frontier.empty()) {
    const int v = frontier.front();
    frontier.pop();
    for (int u : graph.neighbors(v)) {
      if (alive[static_cast<size_t>(u)] != 0 &&
          depth[static_cast<size_t>(u)] < 0) {
        depth[static_cast<size_t>(u)] = depth[static_cast<size_t>(v)] + 1;
        frontier.push(u);
      }
    }
  }

  tree.parent.assign(static_cast<size_t>(n), -1);
  // Level by level so kDegreeBalanced sees up-to-date child counts; within
  // a level, ascending external id — the same deterministic visit order as
  // BuildRoutingTree over the graph in placement order, whatever order the
  // simulator numbers vertices in.
  std::vector<int> order;
  order.reserve(static_cast<size_t>(n));
  for (int e = 0; e < n; ++e) {
    const int v = graph.internal_id(e);
    if (depth[static_cast<size_t>(v)] >= 0) order.push_back(v);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return depth[static_cast<size_t>(a)] < depth[static_cast<size_t>(b)];
  });
  std::vector<int> child_count(static_cast<size_t>(n), 0);

  for (int v : order) {
    if (v == root) continue;
    std::vector<int> candidates;
    for (int u : graph.neighbors(v)) {
      if (depth[static_cast<size_t>(u)] ==
          depth[static_cast<size_t>(v)] - 1) {
        candidates.push_back(u);
      }
    }
    WSNQ_CHECK(!candidates.empty());  // v is reachable, so a parent exists
    int best = candidates.front();
    switch (selection) {
      case ParentSelection::kNearest: {
        double best_d = SquaredDistance(graph.point(v), graph.point(best));
        for (int u : candidates) {
          const double d = SquaredDistance(graph.point(v), graph.point(u));
          if (d < best_d) {
            best = u;
            best_d = d;
          }
        }
        break;
      }
      case ParentSelection::kDegreeBalanced: {
        for (int u : candidates) {
          if (child_count[static_cast<size_t>(u)] <
              child_count[static_cast<size_t>(best)]) {
            best = u;
          }
        }
        break;
      }
      case ParentSelection::kRandom: {
        // Counter-based stand-in for BuildRoutingTree's sequential draw.
        FaultKey draw;
        draw.seed = key;
        draw.src = graph.external_id(v);
        draw.salt = FaultStream::kRepair;
        best = candidates[static_cast<size_t>(
            FaultBits(draw) % candidates.size())];
        break;
      }
    }
    tree.parent[static_cast<size_t>(v)] = best;
    ++child_count[static_cast<size_t>(best)];
    // Repair never creates a cycle: the parent sits one BFS level up.
    WSNQ_DCHECK_EQ(depth[static_cast<size_t>(best)],
                   depth[static_cast<size_t>(v)] - 1);
  }

  // Children lists and traversal orders span attached vertices only, so
  // protocol convergecasts/broadcasts skip the dead by construction.
  tree.depth.assign(static_cast<size_t>(n), 0);
  for (int v : order) {
    tree.depth[static_cast<size_t>(v)] = depth[static_cast<size_t>(v)];
  }
  // `order` is ascending external id within a level and every child list
  // holds one level, so the lists come out in ascending external id.
  tree.children = ChildLists(tree.parent, order);

  FillTraversalOrders(&tree);
  WSNQ_CHECK_EQ(tree.post_order.size(), order.size());
  return tree;
}

}  // namespace wsnq

#include "net/spanning_tree.h"

#include <algorithm>
#include <vector>

#include "net/geometry.h"
#include "util/check.h"
#include "util/rng.h"

namespace wsnq {
namespace {

// BFS hop distances from `root`; -1 when unreachable.
std::vector<int> BfsDepths(const RadioGraph& graph, int root) {
  std::vector<int> depth(static_cast<size_t>(graph.size()), -1);
  std::vector<int> frontier;
  frontier.reserve(static_cast<size_t>(graph.size()));
  frontier.push_back(root);
  depth[static_cast<size_t>(root)] = 0;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const int v = frontier[head];
    for (int u : graph.neighbors(v)) {
      if (depth[static_cast<size_t>(u)] < 0) {
        depth[static_cast<size_t>(u)] = depth[static_cast<size_t>(v)] + 1;
        frontier.push_back(u);
      }
    }
  }
  return depth;
}

// Fills children lists and pre/post orders from root + parent array.
void FinalizeTree(SpanningTree* tree) {
  const int n = tree->size();
  tree->children.assign(static_cast<size_t>(n), {});
  for (int v = 0; v < n; ++v) {
    if (v == tree->root) continue;
    tree->children[static_cast<size_t>(
                       tree->parent[static_cast<size_t>(v)])]
        .push_back(v);  // ascending v, so every list is sorted
  }

  tree->pre_order.clear();
  tree->post_order.clear();
  tree->pre_order.reserve(static_cast<size_t>(n));
  tree->post_order.reserve(static_cast<size_t>(n));
  std::vector<std::pair<int, size_t>> stack;  // (vertex, next child index)
  stack.emplace_back(tree->root, 0);
  tree->pre_order.push_back(tree->root);
  while (!stack.empty()) {
    auto& [v, idx] = stack.back();
    const auto& kids = tree->children[static_cast<size_t>(v)];
    if (idx < kids.size()) {
      const int child = kids[idx++];
      tree->pre_order.push_back(child);
      stack.emplace_back(child, 0);
    } else {
      tree->post_order.push_back(v);
      stack.pop_back();
    }
  }
  WSNQ_CHECK_EQ(static_cast<int>(tree->post_order.size()), n);
}

}  // namespace

StatusOr<SpanningTree> BuildRoutingTree(const RadioGraph& graph, int root,
                                        ParentSelection selection,
                                        uint64_t seed) {
  const int n = graph.size();
  WSNQ_CHECK_GE(root, 0);
  WSNQ_CHECK_LT(root, n);

  SpanningTree tree;
  tree.root = root;
  tree.depth = BfsDepths(graph, root);
  for (int d : tree.depth) {
    if (d < 0) {
      return Status::FailedPrecondition(
          "radio graph is not connected; cannot build routing tree");
    }
  }

  tree.parent.assign(static_cast<size_t>(n), -1);
  Rng rng(seed ^ 0x5eed7ee5eed7ee5ULL);
  // Process nodes level by level so kDegreeBalanced sees up-to-date child
  // counts; within a level, ascending vertex id (deterministic). A stable
  // counting sort by depth yields exactly that order.
  int max_depth = 0;
  for (int d : tree.depth) max_depth = std::max(max_depth, d);
  std::vector<int> level_start(static_cast<size_t>(max_depth) + 2, 0);
  for (int d : tree.depth) ++level_start[static_cast<size_t>(d) + 1];
  for (size_t d = 0; d + 1 < level_start.size(); ++d) {
    level_start[d + 1] += level_start[d];
  }
  std::vector<int> order(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    const size_t d = static_cast<size_t>(tree.depth[static_cast<size_t>(v)]);
    order[static_cast<size_t>(level_start[d]++)] = v;
  }
  std::vector<int> child_count(static_cast<size_t>(n), 0);

  for (int v : order) {
    if (v == root) continue;
    // Candidates are the neighbours one hop closer to the root, in
    // ascending id; each policy picks among them in one pass.
    const int want = tree.depth[static_cast<size_t>(v)] - 1;
    const auto is_candidate = [&](int u) {
      return tree.depth[static_cast<size_t>(u)] == want;
    };
    int best = -1;
    switch (selection) {
      case ParentSelection::kNearest: {
        double best_d = 0.0;
        for (int u : graph.neighbors(v)) {
          if (!is_candidate(u)) continue;
          const double d = SquaredDistance(graph.point(v), graph.point(u));
          if (best < 0 || d < best_d) {
            best = u;
            best_d = d;
          }
        }
        break;
      }
      case ParentSelection::kDegreeBalanced: {
        for (int u : graph.neighbors(v)) {
          if (!is_candidate(u)) continue;
          if (best < 0 || child_count[static_cast<size_t>(u)] <
                              child_count[static_cast<size_t>(best)]) {
            best = u;
          }
        }
        break;
      }
      case ParentSelection::kRandom: {
        int64_t count = 0;
        for (int u : graph.neighbors(v)) count += is_candidate(u) ? 1 : 0;
        WSNQ_CHECK_GT(count, 0);
        int64_t pick = rng.UniformInt(0, count - 1);
        for (int u : graph.neighbors(v)) {
          if (is_candidate(u) && pick-- == 0) {
            best = u;
            break;
          }
        }
        break;
      }
    }
    WSNQ_CHECK_GE(best, 0);
    tree.parent[static_cast<size_t>(v)] = best;
    ++child_count[static_cast<size_t>(best)];
  }

  FinalizeTree(&tree);
  return tree;
}

StatusOr<SpanningTree> BuildShortestPathTree(const RadioGraph& graph,
                                             int root) {
  return BuildRoutingTree(graph, root, ParentSelection::kNearest);
}

}  // namespace wsnq

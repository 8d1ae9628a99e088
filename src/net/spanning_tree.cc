#include "net/spanning_tree.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>
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

}  // namespace

void FillTraversalOrders(SpanningTree* tree) {
  tree->pre_order.clear();
  tree->post_order.clear();
  tree->pre_order.reserve(tree->parent.size());
  tree->post_order.reserve(tree->parent.size());
  tree->subtree_begin.assign(tree->parent.size(), -1);
  std::vector<std::pair<int, size_t>> stack;  // (vertex, next child index)
  const auto enter = [&](int v) {
    tree->pre_order.push_back(v);
    tree->subtree_begin[static_cast<size_t>(v)] =
        static_cast<int>(tree->post_order.size());
    stack.emplace_back(v, 0);
  };
  enter(tree->root);
  while (!stack.empty()) {
    auto& [v, idx] = stack.back();
    const auto& kids = tree->children[static_cast<size_t>(v)];
    if (idx < kids.size()) {
      enter(kids[idx++]);
    } else {
      tree->post_order.push_back(v);
      stack.pop_back();
    }
  }
}

ChildLists::ChildLists(const std::vector<int>& parent,
                       std::span<const int> order) {
  const size_t n = parent.size();
  offsets_.assign(n + 1, 0);
  // Count one slot ahead, so the prefix sum turns counts into offsets.
  for (int v : order) {
    const int p = parent[static_cast<size_t>(v)];
    if (p >= 0) ++offsets_[static_cast<size_t>(p) + 1];
  }
  for (size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  items_.resize(static_cast<size_t>(offsets_[n]));
  std::vector<int> cursor(offsets_.begin(), offsets_.end() - 1);
  for (int v : order) {
    const int p = parent[static_cast<size_t>(v)];
    if (p < 0) continue;
    items_[static_cast<size_t>(cursor[static_cast<size_t>(p)]++)] = v;
  }
}

ChildLists::ChildLists(const std::vector<int>& parent) {
  std::vector<int> order(parent.size());
  std::iota(order.begin(), order.end(), 0);
  *this = ChildLists(parent, order);
}

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
  // Candidates for v are the neighbours one hop closer to the root, in
  // ascending id; each policy picks among them in one pass.
  const auto is_candidate = [&](int v, int u) {
    return tree.depth[static_cast<size_t>(u)] ==
           tree.depth[static_cast<size_t>(v)] - 1;
  };

  if (selection == ParentSelection::kNearest) {
    // The nearest candidate depends on v alone, so any visit order gives
    // the same tree; id order reads the neighbour array front to back.
    for (int v = 0; v < n; ++v) {
      if (v == root) continue;
      int best = -1;
      double best_d = 0.0;
      for (int u : graph.neighbors(v)) {
        if (!is_candidate(v, u)) continue;
        const double d = SquaredDistance(graph.point(v), graph.point(u));
        if (best < 0 || d < best_d) {
          best = u;
          best_d = d;
        }
      }
      WSNQ_CHECK_GE(best, 0);
      tree.parent[static_cast<size_t>(v)] = best;
    }
  } else {
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
      int best = -1;
      if (selection == ParentSelection::kDegreeBalanced) {
        for (int u : graph.neighbors(v)) {
          if (!is_candidate(v, u)) continue;
          if (best < 0 || child_count[static_cast<size_t>(u)] <
                              child_count[static_cast<size_t>(best)]) {
            best = u;
          }
        }
      } else {  // kRandom
        int64_t count = 0;
        for (int u : graph.neighbors(v)) count += is_candidate(v, u) ? 1 : 0;
        WSNQ_CHECK_GT(count, 0);
        int64_t pick = rng.UniformInt(0, count - 1);
        for (int u : graph.neighbors(v)) {
          if (is_candidate(v, u) && pick-- == 0) {
            best = u;
            break;
          }
        }
      }
      WSNQ_CHECK_GE(best, 0);
      tree.parent[static_cast<size_t>(v)] = best;
      ++child_count[static_cast<size_t>(best)];
    }
  }

  tree.children = ChildLists(tree.parent);  // every list ascending
  FillTraversalOrders(&tree);
  WSNQ_CHECK_EQ(static_cast<int>(tree.post_order.size()), n);
  return tree;
}

StatusOr<SpanningTree> BuildShortestPathTree(const RadioGraph& graph,
                                             int root) {
  return BuildRoutingTree(graph, root, ParentSelection::kNearest);
}

RoutingTopology RelabelToPostOrder(const RadioGraph& graph,
                                   const SpanningTree& tree) {
  const int n = tree.size();
  WSNQ_CHECK_EQ(graph.size(), n);
  WSNQ_CHECK_EQ(static_cast<int>(tree.post_order.size()), n);
  std::vector<int> new_id(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    new_id[static_cast<size_t>(tree.post_order[static_cast<size_t>(i)])] = i;
  }
  const auto rename = [&](int v) {
    return v < 0 ? v : new_id[static_cast<size_t>(v)];
  };

  SpanningTree out;
  out.root = rename(tree.root);
  out.parent.resize(static_cast<size_t>(n));
  out.depth.resize(static_cast<size_t>(n));
  out.post_order.resize(static_cast<size_t>(n));
  out.pre_order.resize(static_cast<size_t>(n));
  out.subtree_begin.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const size_t at = static_cast<size_t>(i);
    const size_t old = static_cast<size_t>(tree.post_order[at]);
    out.parent[at] = rename(tree.parent[old]);
    out.depth[at] = tree.depth[old];
    out.post_order[at] = i;
    out.pre_order[at] = rename(tree.pre_order[at]);
    // A subtree's first post-order index does not depend on vertex names;
    // under the new ones it is i - size(i) + 1.
    out.subtree_begin[at] = tree.subtree_begin[old];
  }
  // Post order numbers a vertex's children in list order, so ascending
  // new ids keep every list's order.
  out.children = ChildLists(out.parent);
  return {std::make_shared<const RadioGraph>(graph.Permuted(tree.post_order)),
          std::move(out)};
}

}  // namespace wsnq

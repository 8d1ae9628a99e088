// The logical routing tree G_l of §2: the physical edge set is reduced to a
// shortest-path tree rooted at the sink (§5.1.1). Shortest paths are by hop
// count; among equal-hop parent candidates the geometrically nearest one is
// chosen, which keeps per-link transmit distances (and thus the distance-
// dependent energy term) small.

#ifndef WSNQ_NET_SPANNING_TREE_H_
#define WSNQ_NET_SPANNING_TREE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "net/radio_graph.h"
#include "util/status.h"

namespace wsnq {

/// The child lists of every vertex of a tree, stored flat (compressed sparse
/// row): an offsets array of size n + 1 and one array of child ids, so a
/// tree copies as a few flat arrays and a convergecast reads each vertex's
/// children from one contiguous run.
class ChildLists {
 public:
  ChildLists() = default;

  /// Groups vertices by parent: the children of p are the vertices v of
  /// `order` with parent[v] == p, in `order`'s sequence. Vertices with
  /// parent -1 (the root, detached vertices) are nobody's child.
  ChildLists(const std::vector<int>& parent, std::span<const int> order);
  /// As above with `order` = 0, 1, ..., parent.size() - 1.
  explicit ChildLists(const std::vector<int>& parent);

  std::span<const int> operator[](size_t v) const {
    return {items_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }

  bool operator==(const ChildLists& other) const = default;

 private:
  /// offsets_[v] .. offsets_[v + 1]: v's slice of items_.
  std::vector<int> offsets_;
  std::vector<int> items_;
};

/// A rooted spanning tree over the vertices of a RadioGraph.
struct SpanningTree {
  int root = 0;
  /// parent[v]; parent[root] == -1.
  std::vector<int> parent;
  /// children[v], in ascending external id (RadioGraph::external_id). A
  /// tree built over a graph in placement order, or relabelled by
  /// RelabelToPostOrder, therefore lists children in ascending id too; a
  /// repaired tree over a relabelled graph (fault/tree_repair.h) need not.
  ChildLists children;
  /// Hop distance from the root.
  std::vector<int> depth;
  /// Vertices in post order (every child precedes its parent); the natural
  /// schedule for convergecasts.
  std::vector<int> post_order;
  /// Vertices in pre order (every parent precedes its children); the natural
  /// schedule for broadcasts.
  std::vector<int> pre_order;
  /// subtree_begin[v]: the post_order index of the first vertex of v's
  /// subtree, so the subtree is post_order[subtree_begin[v] ..] up to and
  /// including v itself, and the subtree of every child of v is a sub-range
  /// of it. Convergecast rows (algo/common.h) live in these ranges. -1 for
  /// vertices outside post_order (detached by fault/tree_repair.h).
  std::vector<int> subtree_begin;

  int size() const { return static_cast<int>(parent.size()); }
  bool IsLeaf(int v) const { return children[static_cast<size_t>(v)].empty(); }
};

/// Fills `tree`'s pre_order, post_order and subtree_begin from its root and
/// children lists with one depth-first walk that visits children in list
/// order. Vertices the walk does not reach (detached ones) appear in
/// neither order and get subtree_begin -1.
void FillTraversalOrders(SpanningTree* tree);

/// Builds the shortest-path tree of `graph` rooted at `root`.
/// Fails if the graph is not connected.
StatusOr<SpanningTree> BuildShortestPathTree(const RadioGraph& graph,
                                             int root);

/// How a node picks its parent among the min-hop candidates. All
/// strategies yield hop-optimal trees; they differ in load shape — [23]'s
/// observation that the routing tree itself is a tuning knob.
enum class ParentSelection {
  /// Geometrically nearest candidate (lowest per-link transmit energy).
  kNearest,
  /// Candidate with the fewest children so far (spreads reception load
  /// off hotspot parents).
  kDegreeBalanced,
  /// Uniformly random candidate (the unengineered baseline).
  kRandom,
};

/// Builds a hop-optimal routing tree with the given parent-selection
/// policy. `seed` matters only for kRandom. Fails if disconnected.
StatusOr<SpanningTree> BuildRoutingTree(const RadioGraph& graph, int root,
                                        ParentSelection selection,
                                        uint64_t seed = 0);

/// A radio graph and a routing tree over it: what a Network is assembled
/// from. The graph is immutable and may be shared by several Networks.
struct RoutingTopology {
  std::shared_ptr<const RadioGraph> graph;
  SpanningTree tree;
};

/// Renumbers `graph` and its spanning `tree` (which must reach every
/// vertex) so that the tree's post order becomes 0..n-1: new vertex i is
/// old vertex tree.post_order[i], every subtree of v is the id range
/// [subtree_begin[v], v] with subtree_begin[v] = v - size(v) + 1, and the
/// root is n - 1. Children keep their
/// relative order, so every traversal visits the same vertices in the same
/// sequence as before, under new names. The graph remembers the original
/// ids (RadioGraph::external_id). O(V + E).
RoutingTopology RelabelToPostOrder(const RadioGraph& graph,
                                   const SpanningTree& tree);

}  // namespace wsnq

#endif  // WSNQ_NET_SPANNING_TREE_H_

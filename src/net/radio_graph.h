// The physical communication graph G_p of §2: an undirected unit-disk graph
// whose vertices are node positions and whose edges connect every pair of
// nodes within radio range rho.
//
// Storage is compressed sparse row (CSR): one offsets array of size V + 1
// and one neighbour array of size 2E, so the neighbours of v are
// neighbors_[offsets_[v] .. offsets_[v + 1]), ascending. Construction
// counting-sorts the points into a uniform grid of cells at least rho wide,
// then makes two passes: one over the cells counts degrees, testing every
// candidate pair once; one over the vertices in ascending id fills, each
// vertex appending itself to its neighbours' slices, which leaves every
// slice ascending. That is O(V + E) expected time with no per-vertex
// allocation and no scratch array the size of the graph.
//
// Vertex ids. A graph built from points numbers its vertices by point index;
// those are the *external* ids (placement order). Permuted() renumbers a
// graph into another internal order — the simulator uses the routing tree's
// post order (net/spanning_tree.h, RelabelToPostOrder) — and remembers each
// vertex's external id. A permuted graph keeps every neighbour list in
// ascending *external* id, so any walk over neighbours visits them in the
// same sequence as it would in the original graph.

#ifndef WSNQ_NET_RADIO_GRAPH_H_
#define WSNQ_NET_RADIO_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "net/geometry.h"

namespace wsnq {

/// Immutable unit-disk graph over a set of positions.
class RadioGraph {
 public:
  /// Builds the graph; O(V + E) expected using grid bucketing.
  RadioGraph(std::vector<Point2D> points, double rho);

  int size() const { return static_cast<int>(points_.size()); }
  double rho() const { return rho_; }
  const Point2D& point(int v) const { return points_[static_cast<size_t>(v)]; }
  const std::vector<Point2D>& points() const { return points_; }

  /// Neighbours of `v` (all u != v with dist(u, v) <= rho), in ascending
  /// external id (ascending id, unless the graph is Permuted). The span
  /// views the graph's neighbour array and lives as long as the graph.
  std::span<const int> neighbors(int v) const {
    const size_t i = static_cast<size_t>(v);
    return {neighbors_.data() + offsets_[i],
            static_cast<size_t>(offsets_[i + 1] - offsets_[i])};
  }

  /// True iff the graph is connected (BFS from vertex 0).
  bool IsConnected() const;

  /// The id vertex `v` had in placement order (v itself unless Permuted).
  int external_id(int v) const {
    return external_.empty() ? v : external_[static_cast<size_t>(v)];
  }
  /// The vertex whose external id is `e`; the inverse of external_id.
  int internal_id(int e) const {
    return internal_.empty() ? e : internal_[static_cast<size_t>(e)];
  }

  /// The same graph renumbered so that new vertex i is this graph's vertex
  /// `order[i]` (`order` must be a permutation of [0, size())). Points,
  /// offsets and neighbour lists are permuted in O(V + E); each neighbour
  /// list keeps its order, so it stays ascending by external id.
  RadioGraph Permuted(std::span<const int> order) const;

 private:
  explicit RadioGraph(double rho) : rho_(rho) {}

  std::vector<Point2D> points_;
  double rho_;
  /// offsets_[v] .. offsets_[v + 1]: v's slice of neighbors_ (size V + 1).
  std::vector<int64_t> offsets_;
  std::vector<int> neighbors_;
  /// external_[v] / internal_[e]: both empty for a graph in placement order.
  std::vector<int> external_;
  std::vector<int> internal_;
};

}  // namespace wsnq

#endif  // WSNQ_NET_RADIO_GRAPH_H_

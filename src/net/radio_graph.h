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

  /// Neighbours of `v` (all u != v with dist(u, v) <= rho), ascending. The
  /// span views the graph's neighbour array and lives as long as the graph.
  std::span<const int> neighbors(int v) const {
    const size_t i = static_cast<size_t>(v);
    return {neighbors_.data() + offsets_[i],
            static_cast<size_t>(offsets_[i + 1] - offsets_[i])};
  }

  /// True iff the graph is connected (BFS from vertex 0).
  bool IsConnected() const;

 private:
  std::vector<Point2D> points_;
  double rho_;
  /// offsets_[v] .. offsets_[v + 1]: v's slice of neighbors_ (size V + 1).
  std::vector<int64_t> offsets_;
  std::vector<int> neighbors_;
};

}  // namespace wsnq

#endif  // WSNQ_NET_RADIO_GRAPH_H_

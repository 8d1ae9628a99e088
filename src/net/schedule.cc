#include "net/schedule.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/check.h"

namespace wsnq {
namespace {

// Two-hop neighbourhood of every vertex (sorted, deduplicated, without the
// vertex itself).
std::vector<std::vector<int>> TwoHopNeighbors(const RadioGraph& graph) {
  const int n = graph.size();
  std::vector<std::vector<int>> two_hop(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    std::vector<int>& out = two_hop[static_cast<size_t>(v)];
    for (int u : graph.neighbors(v)) {
      out.push_back(u);
      for (int w : graph.neighbors(u)) {
        if (w != v) out.push_back(w);
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return two_hop;
}

}  // namespace

TdmaSchedule::TdmaSchedule(const RadioGraph& graph, const SpanningTree& tree)
    : tree_(&tree) {
  WSNQ_CHECK_EQ(graph.size(), tree.size());
  const int n = graph.size();
  const auto two_hop = TwoHopNeighbors(graph);

  // Greedy coloring, highest two-hop degree first; ties in external id
  // order, so the slots do not depend on the vertex numbering.
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const size_t da = two_hop[static_cast<size_t>(a)].size();
    const size_t db = two_hop[static_cast<size_t>(b)].size();
    if (da != db) return da > db;
    return graph.external_id(a) < graph.external_id(b);
  });

  slots_.assign(static_cast<size_t>(n), -1);
  std::vector<char> taken;
  for (int v : order) {
    taken.assign(static_cast<size_t>(n) + 1, 0);
    for (int u : two_hop[static_cast<size_t>(v)]) {
      const int s = slots_[static_cast<size_t>(u)];
      if (s >= 0) taken[static_cast<size_t>(s)] = 1;
    }
    int slot = 0;
    while (taken[static_cast<size_t>(slot)]) ++slot;
    slots_[static_cast<size_t>(v)] = slot;
    frame_length_ = std::max(frame_length_, slot + 1);
  }
}

bool TdmaSchedule::IsInterferenceFree(const RadioGraph& graph) const {
  const auto two_hop = TwoHopNeighbors(graph);
  for (int v = 0; v < graph.size(); ++v) {
    for (int u : two_hop[static_cast<size_t>(v)]) {
      if (slots_[static_cast<size_t>(v)] == slots_[static_cast<size_t>(u)]) {
        return false;
      }
    }
  }
  return true;
}

int64_t TdmaSchedule::ConvergecastSlots() const {
  // Depth level d transmits in frame (max_depth - d); a node's transmission
  // lands at frame * frame_length + slot + 1 slots into the round.
  int max_depth = 0;
  for (int d : tree_->depth) max_depth = std::max(max_depth, d);
  if (max_depth == 0) return 0;
  int64_t latest = 0;
  for (int v = 0; v < tree_->size(); ++v) {
    const int d = tree_->depth[static_cast<size_t>(v)];
    if (d == 0) continue;  // the root never transmits upward
    const int64_t frame = max_depth - d;
    latest = std::max(latest, frame * frame_length_ +
                                  slots_[static_cast<size_t>(v)] + 1);
  }
  return latest;
}

int64_t TdmaSchedule::FloodSlots() const {
  // Depth level d transmits in frame d (root first); only internal nodes
  // transmit.
  int64_t latest = 0;
  for (int v = 0; v < tree_->size(); ++v) {
    if (tree_->IsLeaf(v)) continue;
    const int64_t frame = tree_->depth[static_cast<size_t>(v)];
    latest = std::max(latest, frame * frame_length_ +
                                  slots_[static_cast<size_t>(v)] + 1);
  }
  return latest;
}

}  // namespace wsnq

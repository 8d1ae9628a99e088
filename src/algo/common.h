// Shared protocol building blocks: wire sizes, the lt/eq/gt region algebra
// of POS-style filters, validation counter aggregation, hints, and the
// TAG-style k-limited collection used for initialization.
//
// All convergecast helpers run on the net/wave.h engine: per-vertex state
// lives in the flat rows of a WaveWorkspace — fixed-size aggregates indexed
// by vertex, and variable-length rows (value collections, histograms) in
// post-order slabs of one arena per row kind — so a wave is a tight linear
// sweep over post order, serially or partitioned over subtrees when a
// WaveExecutor is installed. Each protocol owns one workspace; its arenas
// are O(n), fit the tree once, and are never cleared, so steady-state waves
// allocate nothing.

#ifndef WSNQ_ALGO_COMMON_H_
#define WSNQ_ALGO_COMMON_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "algo/protocol.h"
#include "net/network.h"
#include "net/wave.h"

namespace wsnq {

/// Field sizes used to compute message payloads (Table 1's s_* symbols).
struct WireFormat {
  /// s_v: one measurement [bits] ("two-byte measurements", §5.1.6).
  int64_t value_bits = 16;
  /// One movement counter of a validation packet [bits].
  int64_t counter_bits = 16;
  /// s_b: one histogram bucket count [bits].
  int64_t bucket_count_bits = 16;
  /// Bucket index used by compressed (sparse) histograms [bits].
  int64_t bucket_index_bits = 8;
  /// One interval bound in a refinement request [bits].
  int64_t bound_bits = 16;
  /// An f_1/f_2-style "number of values requested" field [bits].
  int64_t fcount_bits = 16;
};

/// log2(w) when w is a power of two, else -1. Bucket widths derived from
/// power-of-two universes stay powers of two through b-ary halving, so the
/// per-value bucket divisions in the histogram hot loops can use a shift;
/// callers precompute the shift once per layout (see BucketLayout::BucketOf
/// and LcllProtocol::BucketId).
inline int PowerOfTwoShift(int64_t w) {
  if (w <= 0 || (w & (w - 1)) != 0) return -1;
  int shift = 0;
  while ((int64_t{1} << shift) != w) ++shift;
  return shift;
}

/// Position of a value relative to a single threshold filter.
enum class Region { kLt, kEq, kGt };

inline Region ClassifyThreshold(int64_t value, int64_t threshold) {
  if (value < threshold) return Region::kLt;
  if (value > threshold) return Region::kGt;
  return Region::kEq;
}

/// Aggregated content of a POS validation / refinement packet: the four
/// movement counters of §3.2 plus the min/max hint over all values that
/// changed their region.
struct ValidationAgg {
  int64_t into_lt = 0;
  int64_t outof_lt = 0;
  int64_t into_gt = 0;
  int64_t outof_gt = 0;
  bool has_hint = false;
  int64_t min_changed = 0;
  int64_t max_changed = 0;

  bool empty() const {
    return into_lt == 0 && outof_lt == 0 && into_gt == 0 && outof_gt == 0 &&
           !has_hint;
  }

  /// Folds a child's aggregate into this one (TAG-style merge).
  void Merge(const ValidationAgg& other);

  /// Records one node's region transition `from` -> `to` for a value that
  /// is now `value`.
  void AddTransition(Region from, Region to, int64_t value);
};

/// Convergecast rows stored in post-order slabs. Every subtree is a
/// contiguous range of the tree's post order (SpanningTree::subtree_begin),
/// and no row ever holds more entries than its subtree has vertices, so
/// vertex v's row fits in the slab of positions [subtree_begin[v],
/// subtree_begin[v] + size(v)), scaled by `stride` entries per position. A
/// child's slab is a sub-range of its parent's, the first child's starting
/// where the parent's does. Rows of disjoint subtrees therefore never
/// overlap, so subtree-parallel parts need no locking; the arena is O(n);
/// and since Process(v) writes v's row and length before anything reads
/// them, no row is cleared between waves. `ranks` independent copies of the
/// arena back waves that carry one row per tracked rank.
template <typename T>
class SlabRows {
 public:
  /// Points the rows at `tree`'s slabs; grows the arena if the tree needs
  /// more room than any earlier wave, and never clears it.
  void Fit(const SpanningTree& tree, size_t stride = 1, size_t ranks = 1) {
    begin_ = tree.subtree_begin.data();
    stride_ = stride;
    ranks_ = ranks;
    rank_span_ = stride * tree.post_order.size();
    if (data_.size() < ranks * rank_span_) data_.resize(ranks * rank_span_);
    if (len_.size() < ranks * tree.parent.size()) {
      len_.resize(ranks * tree.parent.size());
    }
  }

  /// First entry of v's row (and slab) for `rank`.
  T* row(int v, size_t rank = 0) { return data_.data() + Offset(v, rank); }
  /// Entries in v's row for `rank`; Process(v) sets it.
  size_t& len(int v, size_t rank = 0) {
    return len_[static_cast<size_t>(v) * ranks_ + rank];
  }
  /// v's row as written by its last Process.
  std::span<const T> Row(int v, size_t rank = 0) const {
    return {data_.data() + Offset(v, rank),
            len_[static_cast<size_t>(v) * ranks_ + rank]};
  }

  size_t reserved_bytes() const {
    return data_.capacity() * sizeof(T) + len_.capacity() * sizeof(size_t);
  }

 private:
  size_t Offset(int v, size_t rank) const {
    return rank * rank_span_ +
           stride_ * static_cast<size_t>(begin_[static_cast<size_t>(v)]);
  }

  std::vector<T> data_;
  std::vector<size_t> len_;
  const int* begin_ = nullptr;
  size_t stride_ = 1;
  size_t ranks_ = 1;
  size_t rank_span_ = 0;
};

/// One (bucket, count) entry of a sparse histogram or delta row.
using BucketCount = std::pair<int, int64_t>;

/// The reusable rows of one protocol instance's convergecasts. Distinct row
/// families back waves that nest (a refinement convergecast issued while a
/// validation wave's root windows are still being consumed). Nothing is
/// reset between waves: every Process(v) overwrites v's own row first.
class WaveWorkspace {
 public:
  /// `n` ValidationAgg rows, resized but not cleared.
  std::vector<ValidationAgg>& PrepareAgg(size_t n) {
    return PrepareAggRows(n, 1);
  }
  /// Flat (n × rows) ValidationAgg matrix for multi-rank waves.
  std::vector<ValidationAgg>& PrepareAggRows(size_t n, size_t rows) {
    if (agg_.size() < n * rows) agg_.resize(n * rows);
    return agg_;
  }

  /// Sorted value rows of the k-limited / range / top-f collections.
  SlabRows<int64_t>& values() { return values_; }
  /// Window rows of IQ / multi-quantile validation (one per rank).
  SlabRows<int64_t>& windows() { return windows_; }
  /// Sorted (bucket, count) histogram rows.
  SlabRows<BucketCount>& hist() { return hist_; }
  /// Sorted (bucket, delta) rows of LCLL validation, two entries per vertex.
  SlabRows<BucketCount>& deltas() { return deltas_; }

  /// Heap bytes held by every row family: bounded by a fixed multiple of
  /// the vertex count, and unchanged by further waves over the same tree.
  size_t reserved_bytes() const {
    return agg_.capacity() * sizeof(ValidationAgg) + values_.reserved_bytes() +
           windows_.reserved_bytes() + hist_.reserved_bytes() +
           deltas_.reserved_bytes();
  }

 private:
  std::vector<ValidationAgg> agg_;
  SlabRows<int64_t> values_;
  SlabRows<int64_t> windows_;
  SlabRows<BucketCount> hist_;
  SlabRows<BucketCount> deltas_;
};

/// Merges the sorted `child` row (ordered by `cmp`) into the sorted row
/// `row[0, len)` and returns the merged length. `row` must have room for
/// len + child.size() entries, and `child` may lie in that room only at or
/// after row + len — as a later sibling's slab does. The child is copied to
/// `scratch`, then the two merge from the back, so the entries of `row`
/// that sort before every child entry are never moved.
template <typename Cmp>
size_t MergeRowInto(int64_t* row, size_t len, std::span<const int64_t> child,
                    std::vector<int64_t>* scratch, Cmp cmp) {
  if (child.empty()) return len;
  if (len == 0) {
    // The first child's row already starts where v's does.
    if (child.data() != row) std::copy(child.begin(), child.end(), row);
    return child.size();
  }
  scratch->assign(child.begin(), child.end());
  const int64_t* a = row + len;
  const int64_t* b = scratch->data() + scratch->size();
  int64_t* out = row + len + child.size();
  while (b != scratch->data()) {
    if (a != row && cmp(*(b - 1), *(a - 1))) {
      *--out = *--a;
    } else {
      *--out = *--b;
    }
  }
  return len + child.size();
}

/// MergeRowInto for sparse (bucket, count) rows sorted by bucket: counts of
/// equal buckets add, and an entry whose count sums to zero is dropped, so
/// the result is the same whatever order rows merge in.
size_t MergeCountsInto(BucketCount* row, size_t len,
                       std::span<const BucketCount> child,
                       std::vector<BucketCount>* scratch);

/// The length of sorted `row[0, len)` (ordered by its wave's comparator)
/// truncated to its first `limit` entries plus all duplicates of the
/// limit-th entry. Truncating after every merge (not just once per vertex)
/// is exactness-preserving: an element beyond the limit-th entry of any
/// intermediate superset compares strictly after the final cutoff, so
/// merge-everything-then-truncate would drop it too. It keeps the running
/// row bounded by limit + ties, which keeps high-fanout merges linear.
inline size_t TruncatedWithTies(const int64_t* row, size_t len,
                                int64_t limit) {
  if (static_cast<int64_t>(len) <= limit) return len;
  const int64_t cutoff = row[static_cast<size_t>(limit - 1)];
  size_t keep = static_cast<size_t>(limit);
  while (keep < len && row[keep] == cutoff) ++keep;
  return keep;
}

/// Applies aggregated movement counters to root counts (l and g move by the
/// counter deltas; e is rederived from the population size).
inline void ApplyCounters(const ValidationAgg& agg, int64_t population,
                          RootCounts* counts) {
  counts->l += agg.into_lt - agg.outof_lt;
  counts->g += agg.into_gt - agg.outof_gt;
  counts->e = population - counts->l - counts->g;
}

/// Whether `counts` certify that the current filter value is the exact k-th
/// smallest: l < k <= l + e.
inline bool CountsValid(const RootCounts& counts, int64_t k) {
  return counts.l < k && counts.l + counts.e >= k;
}

/// Debug-audit helper: the root's (l, e, g) are componentwise non-negative
/// and partition the sensor population. Message loss can legitimately break
/// this, so call sites guard on `!net->lossy()`.
inline bool CountsConserved(const RootCounts& counts, int64_t population) {
  return counts.l >= 0 && counts.e >= 0 && counts.g >= 0 &&
         counts.l + counts.e + counts.g == population;
}

/// TAG-style k-limited collection (§5.1.6): every node forwards the k
/// smallest values of its subtree — plus all duplicates of the k-th
/// smallest, so the root learns the exact multiplicity of every value up to
/// rank k. Communication is accounted on `net`; returns the root's sorted
/// multiset (size >= min(k, |N|)).
std::vector<int64_t> CollectKSmallest(Network* net,
                                      const std::vector<int64_t>& values,
                                      int64_t k, const WireFormat& wire,
                                      WaveWorkspace* ws = nullptr);

/// Root counts (l, e, g) of `threshold` given a collection that is complete
/// up to and including every duplicate of the k-th smallest value.
RootCounts CountsFromCollection(const std::vector<int64_t>& sorted_collection,
                                int64_t threshold, int64_t population);

/// Best-effort k-th smallest from a possibly incomplete sorted collection
/// (message loss, §6): clamps the rank into the collection and falls back
/// to `fallback` when nothing arrived at all.
inline int64_t BestEffortKth(const std::vector<int64_t>& sorted, int64_t k,
                             int64_t fallback) {
  if (sorted.empty()) return fallback;
  const int64_t idx =
      std::clamp<int64_t>(k, 1, static_cast<int64_t>(sorted.size())) - 1;
  return sorted[static_cast<size_t>(idx)];
}

/// Collects every measurement inside [lo, hi] (inclusive) at the root
/// ("request all values in the remaining interval directly", §3.2).
/// Intermediate nodes merge sorted runs; accounting goes through `net`.
/// Returns the root's sorted multiset.
std::vector<int64_t> RangeValuesConvergecast(Network* net,
                                             const std::vector<int64_t>& values,
                                             int64_t lo, int64_t hi,
                                             const WireFormat& wire,
                                             WaveWorkspace* ws = nullptr);

/// IQ-style bounded refinement response (§4.2.2): collects the `f` largest
/// (or smallest) measurements inside [lo, hi]; intermediate nodes drop
/// everything beyond the f-th extreme, but forward all duplicates of the
/// f-th extreme so the root can account for ties. Returns the root's sorted
/// (ascending) multiset.
std::vector<int64_t> TopFConvergecast(Network* net,
                                      const std::vector<int64_t>& values,
                                      int64_t lo, int64_t hi, int64_t f,
                                      bool largest, const WireFormat& wire,
                                      WaveWorkspace* ws = nullptr);

/// Runs a POS-style transition convergecast. For every sensor vertex v,
/// `classify(v)` returns its (from, to) region pair; region changes are
/// folded into ValidationAgg rows that merge up the tree. A node transmits
/// iff its merged aggregate is non-empty; the packet payload is four
/// movement counters plus `hint_values` measurement fields when the
/// aggregate carries a hint. Returns the root's aggregate.
template <typename ClassifyFn>
ValidationAgg TransitionConvergecast(Network* net,
                                     const std::vector<int64_t>& values,
                                     const WireFormat& wire, int hint_values,
                                     ClassifyFn&& classify,
                                     WaveWorkspace* ws = nullptr) {
  WaveWorkspace fallback;
  if (ws == nullptr) ws = &fallback;
  std::vector<ValidationAgg>& inbox =
      ws->PrepareAgg(static_cast<size_t>(net->num_vertices()));
  struct Ops {
    Network* net;
    const std::vector<int64_t>& values;
    const WireFormat& wire;
    int hint_values;
    ClassifyFn& classify;
    std::vector<ValidationAgg>& inbox;

    WaveSend Process(int v, WaveLane& /*lane*/) {
      ValidationAgg& agg = inbox[static_cast<size_t>(v)];
      agg = ValidationAgg{};
      if (!net->is_root(v)) {
        const auto [from, to] = classify(v);
        agg.AddTransition(from, to, values[static_cast<size_t>(v)]);
      }
      for (int child : net->tree().children[static_cast<size_t>(v)]) {
        agg.Merge(inbox[static_cast<size_t>(child)]);
      }
      WaveSend send;
      if (!agg.empty()) {
        send.payload_bits =
            4 * wire.counter_bits +
            (agg.has_hint ? hint_values * wire.value_bits : 0);
      }
      return send;
    }
    void OnLost(int v) {
      // Lost uplink: the subtree report vanishes.
      inbox[static_cast<size_t>(v)] = ValidationAgg{};
    }
  };
  Ops ops{net, values, wire, hint_values, classify, inbox};
  RunConvergecastWave(net, ops);
  return inbox[static_cast<size_t>(net->root())];
}

}  // namespace wsnq

#endif  // WSNQ_ALGO_COMMON_H_

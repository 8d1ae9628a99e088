#include "algo/common.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "util/check.h"

namespace wsnq {

void ValidationAgg::Merge(const ValidationAgg& other) {
  into_lt += other.into_lt;
  outof_lt += other.outof_lt;
  into_gt += other.into_gt;
  outof_gt += other.outof_gt;
  if (other.has_hint) {
    if (!has_hint) {
      has_hint = true;
      min_changed = other.min_changed;
      max_changed = other.max_changed;
    } else {
      min_changed = std::min(min_changed, other.min_changed);
      max_changed = std::max(max_changed, other.max_changed);
    }
  }
}

void ValidationAgg::AddTransition(Region from, Region to, int64_t value) {
  if (from == to) return;
  if (to == Region::kLt) ++into_lt;
  if (from == Region::kLt) ++outof_lt;
  if (to == Region::kGt) ++into_gt;
  if (from == Region::kGt) ++outof_gt;
  if (!has_hint) {
    has_hint = true;
    min_changed = value;
    max_changed = value;
  } else {
    min_changed = std::min(min_changed, value);
    max_changed = std::max(max_changed, value);
  }
}

size_t MergeCountsInto(BucketCount* row, size_t len,
                       std::span<const BucketCount> child,
                       std::vector<BucketCount>* scratch) {
  if (child.empty()) return len;
  if (len == 0) {
    if (child.data() != row) std::copy(child.begin(), child.end(), row);
    return child.size();
  }
  scratch->assign(child.begin(), child.end());
  // Merge from the back, as MergeRowInto does. Every dropped zero sum
  // leaves the write cursor one further ahead of the unread part of `row`,
  // so the merged tail is moved down over the gap afterwards.
  const BucketCount* a = row + len;
  const BucketCount* b = scratch->data() + scratch->size();
  BucketCount* const end = row + len + child.size();
  BucketCount* out = end;
  while (b != scratch->data()) {
    if (a != row && (a - 1)->first > (b - 1)->first) {
      *--out = *--a;
    } else if (a != row && (a - 1)->first == (b - 1)->first) {
      --a;
      --b;
      const int64_t sum = a->second + b->second;
      if (sum != 0) *--out = {a->first, sum};
    } else {
      *--out = *--b;
    }
  }
  BucketCount* const kept = row + (a - row);
  if (out != kept) std::copy(out, end, kept);
  return static_cast<size_t>(kept - row) + static_cast<size_t>(end - out);
}

namespace {

/// Ops for the sorted value collections: v's row is the sorted (by `cmp`)
/// multiset of its subtree's values inside [lo, hi], truncated to `limit`
/// entries plus ties of the limit-th when limit > 0. A node uplinks iff its
/// row is non-empty.
template <typename Cmp>
struct SortedCollectOps {
  Network* net;
  const std::vector<int64_t>& values;
  int64_t lo;
  int64_t hi;
  int64_t limit;
  const WireFormat& wire;
  SlabRows<int64_t>& rows;
  Cmp cmp;

  WaveSend Process(int v, WaveLane& lane) {
    int64_t* row = rows.row(v);
    size_t len = 0;
    const auto merge = [&](std::span<const int64_t> in) {
      len = MergeRowInto(row, len, in, &lane.scratch, cmp);
      // Truncate after every merge so the running row never exceeds
      // limit + ties (see TruncatedWithTies).
      if (limit > 0) len = TruncatedWithTies(row, len, limit);
    };
    for (int child : net->tree().children[static_cast<size_t>(v)]) {
      merge(rows.Row(child));
    }
    if (!net->is_root(v)) {
      const int64_t& value = values[static_cast<size_t>(v)];
      if (value >= lo && value <= hi) merge({&value, 1});
    }
    rows.len(v) = len;
    WaveSend send;
    if (len > 0) {
      send.payload_bits = static_cast<int64_t>(len) * wire.value_bits;
      send.value_count = static_cast<int64_t>(len);
    }
    return send;
  }
  void OnLost(int v) {
    rows.len(v) = 0;  // the parent never sees the subtree
  }
};

/// Runs one sorted collection wave and returns the root's row.
template <typename Cmp>
std::vector<int64_t> SortedCollect(Network* net,
                                   const std::vector<int64_t>& values,
                                   int64_t lo, int64_t hi, int64_t limit,
                                   const WireFormat& wire, WaveWorkspace* ws,
                                   Cmp cmp) {
  WSNQ_CHECK_EQ(values.size(), static_cast<size_t>(net->num_vertices()));
  WaveWorkspace fallback;
  if (ws == nullptr) ws = &fallback;
  SlabRows<int64_t>& rows = ws->values();
  rows.Fit(net->tree());
  SortedCollectOps<Cmp> ops{net, values, lo, hi, limit, wire, rows, cmp};
  RunConvergecastWave(net, ops);
  const std::span<const int64_t> root = rows.Row(net->root());
  return {root.begin(), root.end()};
}

}  // namespace

std::vector<int64_t> CollectKSmallest(Network* net,
                                      const std::vector<int64_t>& values,
                                      int64_t k, const WireFormat& wire,
                                      WaveWorkspace* ws) {
  WSNQ_CHECK_GE(k, 1);
  std::vector<int64_t> result = SortedCollect(
      net, values, std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max(), k, wire, ws, std::less<int64_t>());
  WSNQ_DCHECK(std::is_sorted(result.begin(), result.end()));
  if (!net->lossy()) {
    // Lossless collection is complete up to rank k.
    WSNQ_DCHECK_GE(static_cast<int64_t>(result.size()),
                   std::min<int64_t>(k, net->num_sensors()));
  }
  return result;
}

std::vector<int64_t> RangeValuesConvergecast(
    Network* net, const std::vector<int64_t>& values, int64_t lo, int64_t hi,
    const WireFormat& wire, WaveWorkspace* ws) {
  std::vector<int64_t> result = SortedCollect(
      net, values, lo, hi, /*limit=*/0, wire, ws, std::less<int64_t>());
  WSNQ_DCHECK(std::is_sorted(result.begin(), result.end()));
  return result;
}

std::vector<int64_t> TopFConvergecast(Network* net,
                                      const std::vector<int64_t>& values,
                                      int64_t lo, int64_t hi, int64_t f,
                                      bool largest, const WireFormat& wire,
                                      WaveWorkspace* ws) {
  WSNQ_CHECK_GE(f, 1);
  if (!largest) {
    return SortedCollect(net, values, lo, hi, f, wire, ws,
                         std::less<int64_t>());
  }
  // Rows run most-extreme-first; the root's comes back ascending.
  std::vector<int64_t> result = SortedCollect(net, values, lo, hi, f, wire,
                                              ws, std::greater<int64_t>());
  std::reverse(result.begin(), result.end());
  return result;
}

RootCounts CountsFromCollection(const std::vector<int64_t>& sorted_collection,
                                int64_t threshold, int64_t population) {
  WSNQ_DCHECK(
      std::is_sorted(sorted_collection.begin(), sorted_collection.end()));
  RootCounts counts;
  for (int64_t v : sorted_collection) {
    if (v < threshold) {
      ++counts.l;
    } else if (v == threshold) {
      ++counts.e;
    } else {
      break;
    }
  }
  counts.g = population - counts.l - counts.e;
  return counts;
}

}  // namespace wsnq

#include "algo/hist_codec.h"

#include <algorithm>

#include "util/check.h"

namespace wsnq {

BucketLayout::BucketLayout(int64_t lb, int64_t ub, int max_buckets)
    : lb_(lb), ub_(ub) {
  WSNQ_CHECK_LT(lb, ub);
  WSNQ_CHECK_GE(max_buckets, 1);
  const int64_t span = ub - lb;
  width_ = (span + max_buckets - 1) / max_buckets;
  WSNQ_CHECK_GE(width_, 1);
  width_shift_ = PowerOfTwoShift(width_);
  num_buckets_ = static_cast<int>((span + width_ - 1) / width_);
  // Bucket edges partition [lb, ub): monotone, contiguous, and the last
  // bucket's (clamped) upper edge lands exactly on ub.
  WSNQ_DCHECK_GE(num_buckets_, 1);
  WSNQ_DCHECK_LE(num_buckets_, max_buckets);
  WSNQ_DCHECK_LT(BucketLb(num_buckets_ - 1), ub_);
  WSNQ_DCHECK_EQ(BucketUb(num_buckets_ - 1), ub_);
}

int64_t BucketLayout::BucketUb(int i) const {
  return std::min(ub_, lb_ + (static_cast<int64_t>(i) + 1) * width_);
}

void SparseHistogram::Merge(const SparseHistogram& other) {
  WSNQ_CHECK_EQ(counts_.size(), other.counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

int SparseHistogram::NonEmpty() const {
  int n = 0;
  for (int64_t c : counts_) n += (c != 0);
  return n;
}

int64_t SparseHistogram::Total() const {
  int64_t t = 0;
  for (int64_t c : counts_) t += c;
  return t;
}

int64_t SparseHistogram::EncodedBits(const WireFormat& wire) const {
  return HistogramBits(NonEmpty(), num_buckets(), wire);
}

int64_t HistogramBits(int64_t nonempty, int64_t buckets,
                      const WireFormat& wire) {
  const int64_t dense = buckets * wire.bucket_count_bits;
  const int64_t sparse =
      nonempty * (wire.bucket_count_bits + wire.bucket_index_bits);
  return std::min(dense, sparse);
}

namespace {

/// Ops for HistogramConvergecast: v's row is the sorted (bucket, count)
/// list of its subtree's non-empty buckets.
struct HistogramOps {
  Network* net;
  const std::vector<int64_t>& values;
  const BucketLayout& layout;
  const WireFormat& wire;
  SlabRows<BucketCount>& rows;

  WaveSend Process(int v, WaveLane& lane) {
    BucketCount* row = rows.row(v);
    size_t len = 0;
    for (int child : net->tree().children[static_cast<size_t>(v)]) {
      len = MergeCountsInto(row, len, rows.Row(child), &lane.pair_scratch);
    }
    if (!net->is_root(v)) {
      const int64_t value = values[static_cast<size_t>(v)];
      if (layout.Contains(value)) {
        const BucketCount own{layout.BucketOf(value), 1};
        len = MergeCountsInto(row, len, {&own, 1}, &lane.pair_scratch);
      }
    }
    rows.len(v) = len;
    WaveSend send;
    if (len > 0) {
      send.payload_bits = HistogramBits(static_cast<int64_t>(len),
                                        layout.num_buckets(), wire);
    }
    return send;
  }
  void OnLost(int v) {
    rows.len(v) = 0;  // lost uplink: the parent never merges the row
  }
};

}  // namespace

SparseHistogram HistogramConvergecast(Network* net,
                                      const std::vector<int64_t>& values,
                                      const BucketLayout& layout,
                                      const WireFormat& wire,
                                      WaveWorkspace* ws) {
  WaveWorkspace fallback;
  if (ws == nullptr) ws = &fallback;
  SlabRows<BucketCount>& rows = ws->hist();
  rows.Fit(net->tree());
  HistogramOps ops{net, values, layout, wire, rows};
  RunConvergecastWave(net, ops);
  SparseHistogram result(layout.num_buckets());
  for (const auto& [bucket, count] : rows.Row(net->root())) {
    result.Add(bucket, count);
  }
#ifndef NDEBUG
  if (!net->lossy()) {
    // Conservation through the convergecast: the root's histogram holds
    // exactly one count per in-range sensor measurement.
    int64_t expect = 0;
    for (int v : net->tree().post_order) {
      if (!net->is_root(v) && layout.Contains(values[static_cast<size_t>(v)]))
        ++expect;
    }
    WSNQ_DCHECK_EQ(result.Total(), expect);
  }
#endif
  return result;
}

}  // namespace wsnq

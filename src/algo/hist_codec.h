// Equi-width integer histograms and their wire encoding, shared by the
// histogram-based protocols (snapshot b-ary search, HBC, LCLL).
//
// A histogram partitions the half-open integer interval [lb, ub) into at
// most `b` buckets of equal width ceil((ub - lb) / b); the last bucket may
// be narrower. On the wire a histogram is either dense (b counts) or
// compressed by dropping empty buckets ((index, count) pairs, §4.1.1's
// "compressing histograms by removing empty buckets"); EncodedBits picks
// the cheaper form, as a real implementation would.

#ifndef WSNQ_ALGO_HIST_CODEC_H_
#define WSNQ_ALGO_HIST_CODEC_H_

#include <cstdint>
#include <vector>

#include "algo/common.h"

namespace wsnq {

/// Bucket layout over [lb, ub) with at most `max_buckets` buckets.
class BucketLayout {
 public:
  /// Precondition: lb < ub, max_buckets >= 1.
  BucketLayout(int64_t lb, int64_t ub, int max_buckets);

  int64_t lb() const { return lb_; }
  int64_t ub() const { return ub_; }
  int64_t width() const { return width_; }
  /// Actual number of buckets (<= max_buckets).
  int num_buckets() const { return num_buckets_; }

  /// True iff `value` falls into [lb, ub).
  bool Contains(int64_t value) const { return value >= lb_ && value < ub_; }

  /// Bucket index of `value`. Precondition: Contains(value). Power-of-two
  /// widths (the common case: b-ary drills over power-of-two universes keep
  /// halving into power-of-two widths) resolve with a shift instead of a
  /// 64-bit division — this runs once per in-range sensor per histogram
  /// wave, so the division is measurably hot.
  int BucketOf(int64_t value) const {
    WSNQ_DCHECK(Contains(value));
    const int64_t offset = value - lb_;
    const int bucket = static_cast<int>(
        width_shift_ >= 0 ? offset >> width_shift_ : offset / width_);
    WSNQ_DCHECK_GE(bucket, 0);
    WSNQ_DCHECK_LT(bucket, num_buckets_);
    return bucket;
  }

  /// Lower bound (inclusive) of bucket `i`.
  int64_t BucketLb(int i) const { return lb_ + static_cast<int64_t>(i) * width_; }
  /// Upper bound (exclusive) of bucket `i`, clamped to ub.
  int64_t BucketUb(int i) const;

 private:
  int64_t lb_;
  int64_t ub_;
  int64_t width_;
  /// log2(width_) when width_ is a power of two, else -1 (see BucketOf).
  int width_shift_;
  int num_buckets_;
};

/// Sparse histogram counts over a BucketLayout, mergeable up the tree.
class SparseHistogram {
 public:
  explicit SparseHistogram(int num_buckets)
      : counts_(static_cast<size_t>(num_buckets), 0) {}

  void Add(int bucket, int64_t count = 1) {
    counts_[static_cast<size_t>(bucket)] += count;
  }
  void Merge(const SparseHistogram& other);

  int64_t count(int bucket) const {
    return counts_[static_cast<size_t>(bucket)];
  }
  int num_buckets() const { return static_cast<int>(counts_.size()); }
  int NonEmpty() const;
  int64_t Total() const;
  bool empty() const { return Total() == 0; }

  /// Wire size: the cheaper of the dense and compressed encodings.
  int64_t EncodedBits(const WireFormat& wire) const;

 private:
  std::vector<int64_t> counts_;
};

/// Wire size of a histogram over `buckets` buckets with `nonempty`
/// non-empty ones: the cheaper of the dense and compressed encodings.
int64_t HistogramBits(int64_t nonempty, int64_t buckets,
                      const WireFormat& wire);

/// Aggregates a histogram of all measurements inside `layout`'s interval at
/// the root: every node merges its children's histograms, buckets its own
/// value (if in range), and transmits iff the merged histogram is
/// non-empty, paying the (possibly compressed) encoding size. Rows are
/// sparse (bucket, count) lists in `ws`'s histogram slabs, so a subtree
/// costs what its non-empty buckets cost.
SparseHistogram HistogramConvergecast(Network* net,
                                      const std::vector<int64_t>& values,
                                      const BucketLayout& layout,
                                      const WireFormat& wire,
                                      WaveWorkspace* ws = nullptr);

}  // namespace wsnq

#endif  // WSNQ_ALGO_HIST_CODEC_H_

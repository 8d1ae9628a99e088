#include "algo/approximate.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace wsnq {
namespace {

int UniverseHeight(int64_t range_min, int64_t range_max) {
  const int64_t span = range_max - range_min + 1;
  int height = 1;
  while ((int64_t{1} << height) < span) ++height;
  return height;
}

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

QdigestProtocol::QdigestProtocol(int64_t k, int64_t range_min,
                                 int64_t range_max, const WireFormat& wire,
                                 const Options& options)
    : k_(k),
      range_min_(range_min),
      range_max_(range_max),
      height_(UniverseHeight(range_min, range_max)),
      wire_(wire),
      options_(options) {
  WSNQ_CHECK_GE(k, 1);
}

void QdigestProtocol::RunRound(Network* net,
                               const std::vector<int64_t>& values_by_vertex,
                               int64_t round) {
  if (round == 0) net->FloodFromRoot(wire_.counter_bits);

  const SpanningTree& tree = net->tree();
  std::vector<QDigest> inbox(
      static_cast<size_t>(net->num_vertices()),
      QDigest(height_, options_.compression));
  net->NoteConvergecast();
  for (int v : tree.post_order) {
    QDigest& digest = inbox[static_cast<size_t>(v)];
    if (!net->is_root(v)) {
      digest.Add(values_by_vertex[static_cast<size_t>(v)] - range_min_);
    }
    for (int child : tree.children[static_cast<size_t>(v)]) {
      digest.Merge(inbox[static_cast<size_t>(child)]);
    }
    digest.Compress();
    if (!net->is_root(v)) {
      if (!net->SendToParent(v, digest.EncodedBits(wire_))) {
        digest = QDigest(height_, options_.compression);  // lost uplink
      }
    }
  }
  const QDigest& root_digest = inbox[static_cast<size_t>(net->root())];
  if (root_digest.total() == 0) return;  // total loss; keep the old answer
  quantile_ = range_min_ + root_digest.QueryQuantile(k_);
  last_error_bound_ = root_digest.ErrorBound();
  counts_.l = root_digest.EstimateRank(quantile_ - range_min_ - 1);
  counts_.e = root_digest.EstimateRank(quantile_ - range_min_) - counts_.l;
  counts_.g = net->num_sensors() - counts_.l - counts_.e;
}

GkProtocol::GkProtocol(int64_t k, int64_t /*range_min*/,
                       int64_t /*range_max*/, const WireFormat& wire,
                       const Options& options)
    : k_(k), wire_(wire), options_(options) {
  WSNQ_CHECK_GE(k, 1);
}

void GkProtocol::RunRound(Network* net,
                          const std::vector<int64_t>& values_by_vertex,
                          int64_t round) {
  if (round == 0) net->FloodFromRoot(wire_.counter_bits);

  const SpanningTree& tree = net->tree();
  std::vector<GkSummary> inbox(
      static_cast<size_t>(net->num_vertices()),
      GkSummary(options_.epsilon));
  net->NoteConvergecast();
  for (int v : tree.post_order) {
    GkSummary& summary = inbox[static_cast<size_t>(v)];
    if (!net->is_root(v)) {
      summary.Add(values_by_vertex[static_cast<size_t>(v)]);
    }
    for (int child : tree.children[static_cast<size_t>(v)]) {
      summary.Merge(inbox[static_cast<size_t>(child)]);
    }
    if (!net->is_root(v)) {
      if (!net->SendToParent(v, summary.EncodedBits(wire_))) {
        summary = GkSummary(options_.epsilon);
      }
    }
  }
  const GkSummary& root_summary = inbox[static_cast<size_t>(net->root())];
  if (root_summary.total() == 0) return;
  quantile_ = root_summary.QueryQuantile(k_);
  counts_.l = k_ - 1;  // best effort: the summary's band center
  counts_.e = 1;
  counts_.g = net->num_sensors() - k_;
}

SamplingProtocol::SamplingProtocol(int64_t k, int64_t range_min,
                                   int64_t range_max, const WireFormat& wire,
                                   const Options& options)
    : k_(k),
      range_min_(range_min),
      range_max_(range_max),
      wire_(wire),
      options_(options) {
  WSNQ_CHECK_GE(k, 1);
  WSNQ_CHECK_GT(options.probability, 0.0);
  WSNQ_CHECK_LE(options.probability, 1.0);
}

void SamplingProtocol::RunRound(Network* net,
                                const std::vector<int64_t>& values_by_vertex,
                                int64_t round) {
  if (round == 0) net->FloodFromRoot(wire_.counter_bits);

  const SpanningTree& tree = net->tree();
  std::vector<std::vector<int64_t>> inbox(
      static_cast<size_t>(net->num_vertices()));
  net->NoteConvergecast();
  for (int v : tree.post_order) {
    std::vector<int64_t>& sample = inbox[static_cast<size_t>(v)];
    if (!net->is_root(v)) {
      const double u =
          static_cast<double>(
              Mix(options_.seed ^
                  (static_cast<uint64_t>(net->external_id(v)) << 20) ^
                  static_cast<uint64_t>(round)) >>
              11) *
          0x1.0p-53;
      if (u < options_.probability) {
        sample.push_back(values_by_vertex[static_cast<size_t>(v)]);
      }
    }
    for (int child : tree.children[static_cast<size_t>(v)]) {
      auto& theirs = inbox[static_cast<size_t>(child)];
      sample.insert(sample.end(), theirs.begin(), theirs.end());
      theirs.clear();
    }
    if (!net->is_root(v) && !sample.empty()) {
      net->CountValues(static_cast<int64_t>(sample.size()));
      if (!net->SendToParent(
              v, static_cast<int64_t>(sample.size()) * wire_.value_bits)) {
        sample.clear();
      }
    }
  }
  std::vector<int64_t>& sample = inbox[static_cast<size_t>(net->root())];
  if (sample.empty()) return;
  std::sort(sample.begin(), sample.end());
  // Rank k among |N| maps to rank ~ k * |sample| / |N| in the sample.
  const int64_t sample_rank = std::clamp<int64_t>(
      std::llround(static_cast<double>(k_) *
                   static_cast<double>(sample.size()) /
                   static_cast<double>(net->num_sensors())),
      1, static_cast<int64_t>(sample.size()));
  quantile_ = sample[static_cast<size_t>(sample_rank - 1)];
  counts_.l = k_ - 1;
  counts_.e = 1;
  counts_.g = net->num_sensors() - k_;
}

}  // namespace wsnq

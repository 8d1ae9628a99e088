// TAG baseline (Madden et al. [17], as configured in §5.1.6): every round
// all relevant measurements are collected at the root and the quantile is
// computed centrally. The paper's optimization is applied: the root
// broadcasts k during query dissemination (round 0), so intermediate nodes
// forward only the k smallest values of their subtree (plus ties of the
// k-th, so the root's answer and bookkeeping stay exact).

#ifndef WSNQ_ALGO_TAG_H_
#define WSNQ_ALGO_TAG_H_

#include <cstdint>
#include <vector>

#include "algo/common.h"
#include "algo/protocol.h"

namespace wsnq {

/// Centralized (k-limited) collection, repeated every round.
class TagProtocol : public QuantileProtocol {
 public:
  /// Queries the `k`-th smallest (1-based) measurement every round.
  TagProtocol(int64_t k, const WireFormat& wire) : k_(k), wire_(wire) {}

  const char* name() const override { return "TAG"; }

  void RunRound(Network* net, const std::vector<int64_t>& values_by_vertex,
                int64_t round) override;

  int64_t quantile() const override { return quantile_; }
  RootCounts root_counts() const override { return counts_; }

  /// The convergecast rows this instance reuses from round to round.
  const WaveWorkspace& workspace() const { return ws_; }

 private:
  int64_t k_;
  WireFormat wire_;
  int64_t quantile_ = 0;
  RootCounts counts_;
  WaveWorkspace ws_;
};

}  // namespace wsnq

#endif  // WSNQ_ALGO_TAG_H_

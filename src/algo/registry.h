// Central factory for quantile protocols, keyed by the algorithm names used
// in the paper's evaluation (§5.1.6). Benches, examples, and tests create
// protocols through this registry so they all agree on default options.

#ifndef WSNQ_ALGO_REGISTRY_H_
#define WSNQ_ALGO_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "algo/common.h"
#include "algo/protocol.h"
#include "util/status.h"

namespace wsnq {

/// The algorithms compared in §5 plus this repo's extensions.
enum class AlgorithmKind {
  kTag,
  kPos,
  kPosSr,      ///< [19]-style: POS validation + one direct refinement
  kHbc,
  kHbcNtb,     ///< §4.1.2 variant (ablation)
  kIq,
  kLcllH,
  kLcllS,
  kSnapshot,   ///< stand-alone snapshot b-ary search ([21])
  kSwitching,  ///< adaptive IQ/HBC hybrid (§4.2 future work)
  kQdigest,    ///< approximate: q-digest aggregation ([26]); inexact
  kGk,         ///< approximate: Greenwald-Khanna summaries ([10]); inexact
  kSampling,   ///< probabilistic: Bernoulli sampling ([1,4]); inexact
};

/// Paper-style display name ("TAG", "POS", "HBC", ...).
const char* AlgorithmName(AlgorithmKind kind);

/// Parses a display name; returns NotFound for unknown names.
StatusOr<AlgorithmKind> ParseAlgorithmName(const char* name);

/// Every registered algorithm, in AlgorithmKind order.
std::vector<AlgorithmKind> AllAlgorithms();

/// The algorithm set of the paper's figures, in plotting order.
std::vector<AlgorithmKind> PaperAlgorithms();

/// Creates a protocol instance with the evaluation-default options
/// (hints on, direct sends on, cost-model bucket count, IQ m = 6).
std::unique_ptr<QuantileProtocol> MakeProtocol(AlgorithmKind kind, int64_t k,
                                               int64_t range_min,
                                               int64_t range_max,
                                               const WireFormat& wire);

}  // namespace wsnq

#endif  // WSNQ_ALGO_REGISTRY_H_

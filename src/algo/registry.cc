#include "algo/registry.h"

#include <cstring>

#include "algo/approximate.h"
#include "algo/hbc.h"
#include "algo/iq.h"
#include "algo/lcll.h"
#include "algo/pos.h"
#include "algo/pos_sr.h"
#include "algo/snapshot_bary.h"
#include "algo/switching.h"
#include "algo/tag.h"

namespace wsnq {

const char* AlgorithmName(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kTag:
      return "TAG";
    case AlgorithmKind::kPos:
      return "POS";
    case AlgorithmKind::kPosSr:
      return "POS-SR";
    case AlgorithmKind::kHbc:
      return "HBC";
    case AlgorithmKind::kHbcNtb:
      return "HBC-NTB";
    case AlgorithmKind::kIq:
      return "IQ";
    case AlgorithmKind::kLcllH:
      return "LCLL-H";
    case AlgorithmKind::kLcllS:
      return "LCLL-S";
    case AlgorithmKind::kSnapshot:
      return "SNAPSHOT";
    case AlgorithmKind::kSwitching:
      return "SWITCH";
    case AlgorithmKind::kQdigest:
      return "QDIGEST";
    case AlgorithmKind::kGk:
      return "GK";
    case AlgorithmKind::kSampling:
      return "SAMPLE";
  }
  return "UNKNOWN";
}

std::vector<AlgorithmKind> AllAlgorithms() {
  return {AlgorithmKind::kTag,      AlgorithmKind::kPos,
          AlgorithmKind::kPosSr,    AlgorithmKind::kHbc,
          AlgorithmKind::kHbcNtb,   AlgorithmKind::kIq,
          AlgorithmKind::kLcllH,    AlgorithmKind::kLcllS,
          AlgorithmKind::kSnapshot, AlgorithmKind::kSwitching,
          AlgorithmKind::kQdigest,  AlgorithmKind::kGk,
          AlgorithmKind::kSampling};
}

StatusOr<AlgorithmKind> ParseAlgorithmName(const char* name) {
  for (AlgorithmKind kind : AllAlgorithms()) {
    if (std::strcmp(name, AlgorithmName(kind)) == 0) return kind;
  }
  return Status::NotFound(std::string("unknown algorithm: ") + name);
}

std::vector<AlgorithmKind> PaperAlgorithms() {
  return {AlgorithmKind::kTag,   AlgorithmKind::kPos,
          AlgorithmKind::kHbc,   AlgorithmKind::kIq,
          AlgorithmKind::kLcllH, AlgorithmKind::kLcllS};
}

std::unique_ptr<QuantileProtocol> MakeProtocol(AlgorithmKind kind, int64_t k,
                                               int64_t range_min,
                                               int64_t range_max,
                                               const WireFormat& wire) {
  switch (kind) {
    case AlgorithmKind::kTag:
      return std::make_unique<TagProtocol>(k, wire);
    case AlgorithmKind::kPos:
      return std::make_unique<PosProtocol>(k, range_min, range_max, wire,
                                           PosProtocol::Options{});
    case AlgorithmKind::kPosSr:
      return std::make_unique<PosSrProtocol>(k, range_min, range_max, wire,
                                             PosSrProtocol::Options{});
    case AlgorithmKind::kHbc:
      return std::make_unique<HbcProtocol>(k, range_min, range_max, wire,
                                           HbcProtocol::Options{});
    case AlgorithmKind::kHbcNtb: {
      HbcProtocol::Options options;
      options.eliminate_threshold_broadcast = true;
      return std::make_unique<HbcProtocol>(k, range_min, range_max, wire,
                                           options);
    }
    case AlgorithmKind::kIq:
      return std::make_unique<IqProtocol>(k, range_min, range_max, wire,
                                          IqProtocol::Options{});
    case AlgorithmKind::kLcllH: {
      LcllProtocol::Options options;
      options.mode = LcllProtocol::RefineMode::kHierarchical;
      return std::make_unique<LcllProtocol>(k, range_min, range_max, wire,
                                            options);
    }
    case AlgorithmKind::kLcllS: {
      LcllProtocol::Options options;
      options.mode = LcllProtocol::RefineMode::kSlip;
      return std::make_unique<LcllProtocol>(k, range_min, range_max, wire,
                                            options);
    }
    case AlgorithmKind::kSnapshot: {
      DrillOptions options;
      options.buckets = 8;
      options.direct_capacity = 64;
      return std::make_unique<SnapshotBaryProtocol>(k, range_min, range_max,
                                                    wire, options);
    }
    case AlgorithmKind::kSwitching:
      return std::make_unique<SwitchingProtocol>(k, range_min, range_max,
                                                 wire,
                                                 SwitchingProtocol::Options{});
    case AlgorithmKind::kQdigest:
      return std::make_unique<QdigestProtocol>(k, range_min, range_max, wire,
                                               QdigestProtocol::Options{});
    case AlgorithmKind::kGk:
      return std::make_unique<GkProtocol>(k, range_min, range_max, wire,
                                          GkProtocol::Options{});
    case AlgorithmKind::kSampling:
      return std::make_unique<SamplingProtocol>(k, range_min, range_max,
                                                wire,
                                                SamplingProtocol::Options{});
  }
  return nullptr;
}

}  // namespace wsnq

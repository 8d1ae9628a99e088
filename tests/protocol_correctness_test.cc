// The core exactness contract: every protocol reports the oracle's k-th
// smallest value after every round, over randomized topologies, datasets,
// quantile ranks, and protocol parameters. Failures here mean a protocol's
// distributed bookkeeping diverged from ground truth.

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "algo/oracle.h"
#include "algo/registry.h"
#include "core/config.h"
#include "core/scenario.h"
#include "core/simulation.h"

namespace wsnq {
namespace {

struct SweepCase {
  AlgorithmKind algorithm;
  DatasetKind dataset;
  double phi;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string name = AlgorithmName(info.param.algorithm);
  name += info.param.dataset == DatasetKind::kSynthetic ? "_synth" : "_press";
  name += "_phi" + std::to_string(static_cast<int>(info.param.phi * 100));
  name += "_seed" + std::to_string(info.param.seed);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class ProtocolSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ProtocolSweepTest, ExactEveryRound) {
  const SweepCase& param = GetParam();
  SimulationConfig config;
  config.seed = param.seed;
  config.phi = param.phi;
  config.dataset = param.dataset;
  config.rounds = 40;
  if (param.dataset == DatasetKind::kSynthetic) {
    config.num_sensors = 60;
    config.radio_range = 60.0;
    config.synthetic.period_rounds = 40;
    config.synthetic.noise_percent = 10;
  } else {
    config.pressure.num_stations = 80;
    config.radio_range = 60.0;
  }

  auto scenario = BuildScenario(config, /*run=*/0);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  auto protocol = MakeProtocol(param.algorithm, scenario.value().k,
                               scenario.value().source->range_min(),
                               scenario.value().source->range_max(),
                               config.wire);
  ASSERT_NE(protocol, nullptr);

  Network* net = scenario.value().network.get();
  for (int64_t round = 0; round <= config.rounds; ++round) {
    net->BeginRound();
    const auto values = scenario.value().ValuesView(round);
    protocol->RunRound(net, values, round);
    const auto sensors = SensorValues(*net, values);
    ASSERT_EQ(protocol->quantile(), OracleKth(sensors, scenario.value().k))
        << "algorithm " << protocol->name() << " wrong at round " << round;
    // Root bookkeeping must always partition the population, and —
    // whatever the protocol's filter semantics — certify rank k.
    const RootCounts counts = protocol->root_counts();
    ASSERT_EQ(counts.l + counts.e + counts.g,
              static_cast<int64_t>(sensors.size()));
    ASSERT_TRUE(CountsValid(counts, scenario.value().k))
        << protocol->name() << " counts do not certify k at round " << round;
  }
}

std::vector<SweepCase> MakeSweep() {
  std::vector<SweepCase> cases;
  const AlgorithmKind kAlgorithms[] = {
      AlgorithmKind::kTag,      AlgorithmKind::kPos,
      AlgorithmKind::kPosSr,    AlgorithmKind::kHbc,      AlgorithmKind::kHbcNtb,
      AlgorithmKind::kIq,       AlgorithmKind::kLcllH,
      AlgorithmKind::kLcllS,    AlgorithmKind::kSnapshot,
      AlgorithmKind::kSwitching,
  };
  for (AlgorithmKind algorithm : kAlgorithms) {
    for (DatasetKind dataset :
         {DatasetKind::kSynthetic, DatasetKind::kPressure}) {
      for (double phi : {0.1, 0.5, 0.9}) {
        for (uint64_t seed : {1u, 2u}) {
          cases.push_back({algorithm, dataset, phi, seed});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ProtocolSweepTest,
                         ::testing::ValuesIn(MakeSweep()), CaseName);

}  // namespace
}  // namespace wsnq

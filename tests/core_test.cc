// Core engine: scenario construction, simulation metrics, experiment
// aggregation, and cross-protocol invariants of the evaluation harness.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "algo/pos.h"
#include "algo/registry.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "core/simulation.h"

namespace wsnq {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config;
  config.num_sensors = 40;
  config.radio_range = 60.0;
  config.rounds = 15;
  return config;
}

TEST(ScenarioTest, SyntheticShape) {
  const SimulationConfig config = SmallConfig();
  auto scenario = BuildScenario(config, 0);
  ASSERT_TRUE(scenario.ok());
  EXPECT_EQ(scenario.value().network->num_sensors(), 40);
  EXPECT_EQ(scenario.value().k, 20);
  // The root has no sensor; everyone else maps to a distinct sensor.
  std::vector<bool> seen(40, false);
  int root_entries = 0;
  for (int s : scenario.value().sensor_of_vertex) {
    if (s < 0) {
      ++root_entries;
    } else {
      EXPECT_FALSE(seen[static_cast<size_t>(s)]);
      seen[static_cast<size_t>(s)] = true;
    }
  }
  EXPECT_EQ(root_entries, 1);
}

TEST(ScenarioTest, MultiValueNodesExpandThePopulation) {
  // §2: a node producing m values behaves like m colocated nodes. The
  // population, k, and the exactness contract all scale accordingly.
  SimulationConfig config = SmallConfig();
  config.values_per_node = 3;
  auto scenario = BuildScenario(config, 0);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  EXPECT_EQ(scenario.value().network->num_sensors(), 40 * 3);
  EXPECT_EQ(scenario.value().k, 60);
  // Replicas are colocated: for every vertex there are exactly
  // values_per_node vertices sharing its position (except the root).
  const auto& graph = scenario.value().network->graph();
  const int root = scenario.value().network->root();
  for (int v = 0; v < graph.size(); ++v) {
    if (v == root) continue;
    int colocated = 0;
    for (int u = 0; u < graph.size(); ++u) {
      colocated += graph.point(u).x == graph.point(v).x &&
                   graph.point(u).y == graph.point(v).y;
    }
    EXPECT_EQ(colocated, 3) << "vertex " << v;
  }
  // And the quantile over all 120 values stays exact.
  auto protocol =
      MakeProtocol(AlgorithmKind::kIq, scenario.value().k,
                   scenario.value().source->range_min(),
                   scenario.value().source->range_max(), config.wire);
  const SimulationResult result = RunSimulation(
      scenario.value(), protocol.get(), config.rounds, true);
  EXPECT_EQ(result.errors, 0);
}

TEST(ScenarioTest, DeterministicPerRun) {
  const SimulationConfig config = SmallConfig();
  auto a = BuildScenario(config, 3);
  auto b = BuildScenario(config, 3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().ValuesView(5), b.value().ValuesView(5));
  EXPECT_EQ(a.value().network->tree().parent, b.value().network->tree().parent);
}

TEST(ScenarioTest, DifferentRunsDiffer) {
  const SimulationConfig config = SmallConfig();
  auto a = BuildScenario(config, 0);
  auto b = BuildScenario(config, 1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().ValuesView(0), b.value().ValuesView(0));
}

TEST(ScenarioTest, PressureKeepsPositionsAcrossRuns) {
  SimulationConfig config;
  config.dataset = DatasetKind::kPressure;
  config.pressure.num_stations = 60;
  config.radio_range = 60.0;
  config.rounds = 5;
  auto a = BuildScenario(config, 0);
  auto b = BuildScenario(config, 1);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  // Same station positions (§5.1: only the root changes). Each run numbers
  // its vertices in its own tree order, so stations are matched by
  // external id.
  const RadioGraph& ga = a.value().network->graph();
  const RadioGraph& gb = b.value().network->graph();
  ASSERT_EQ(ga.size(), gb.size());
  for (int e = 0; e < ga.size(); ++e) {
    EXPECT_DOUBLE_EQ(ga.point(ga.internal_id(e)).x,
                     gb.point(gb.internal_id(e)).x);
    EXPECT_DOUBLE_EQ(ga.point(ga.internal_id(e)).y,
                     gb.point(gb.internal_id(e)).y);
  }
}

TEST(ScenarioTest, PressureScaledUniverse) {
  SimulationConfig config;
  config.dataset = DatasetKind::kPressure;
  config.pressure.num_stations = 50;
  config.radio_range = 60.0;
  config.pressure_scale_bits = 12;
  config.rounds = 5;
  auto scenario = BuildScenario(config, 0);
  ASSERT_TRUE(scenario.ok());
  EXPECT_EQ(scenario.value().source->range_min(), 0);
  EXPECT_EQ(scenario.value().source->range_max(), 4095);
}

TEST(SimulationTest, MetricsAreConsistent) {
  const SimulationConfig config = SmallConfig();
  auto scenario = BuildScenario(config, 0);
  ASSERT_TRUE(scenario.ok());
  auto protocol =
      MakeProtocol(AlgorithmKind::kIq, scenario.value().k,
                   scenario.value().source->range_min(),
                   scenario.value().source->range_max(), config.wire);
  const SimulationResult result =
      RunSimulation(scenario.value(), protocol.get(), config.rounds,
                    /*check_oracle=*/true, /*keep_trail=*/true);
  EXPECT_EQ(result.errors, 0);
  EXPECT_EQ(result.rounds, config.rounds + 1);
  EXPECT_EQ(result.trail.size(), static_cast<size_t>(config.rounds + 1));
  EXPECT_GT(result.mean_max_round_energy_mj, 0.0);
  EXPECT_GT(result.lifetime_rounds, 0.0);
  // The trail's mean must equal the aggregate.
  double sum = 0.0;
  for (const auto& r : result.trail) sum += r.max_round_energy_mj;
  EXPECT_NEAR(sum / result.rounds, result.mean_max_round_energy_mj, 1e-12);
}

TEST(SimulationTest, ReplaySameScenarioIsDeterministic) {
  const SimulationConfig config = SmallConfig();
  auto scenario = BuildScenario(config, 0);
  ASSERT_TRUE(scenario.ok());
  auto run_once = [&] {
    auto protocol =
        MakeProtocol(AlgorithmKind::kHbc, scenario.value().k,
                     scenario.value().source->range_min(),
                     scenario.value().source->range_max(), config.wire);
    return RunSimulation(scenario.value(), protocol.get(), config.rounds,
                         true);
  };
  const SimulationResult a = run_once();
  const SimulationResult b = run_once();
  EXPECT_DOUBLE_EQ(a.mean_max_round_energy_mj, b.mean_max_round_energy_mj);
  EXPECT_DOUBLE_EQ(a.lifetime_rounds, b.lifetime_rounds);
  EXPECT_DOUBLE_EQ(a.mean_packets, b.mean_packets);
}

TEST(SimulationTest, LifetimeInverselyRelatedToLoad) {
  // TAG's hotspot pays more than IQ's on a calm workload, so its projected
  // lifetime must be shorter.
  const SimulationConfig config = SmallConfig();
  auto scenario = BuildScenario(config, 0);
  ASSERT_TRUE(scenario.ok());
  auto lifetime = [&](AlgorithmKind kind) {
    auto protocol = MakeProtocol(kind, scenario.value().k,
                                 scenario.value().source->range_min(),
                                 scenario.value().source->range_max(),
                                 config.wire);
    return RunSimulation(scenario.value(), protocol.get(), config.rounds,
                         false)
        .lifetime_rounds;
  };
  EXPECT_GT(lifetime(AlgorithmKind::kIq), lifetime(AlgorithmKind::kTag));
}

TEST(ExperimentTest, AggregatesAcrossRuns) {
  const SimulationConfig config = SmallConfig();
  auto aggregates = RunExperiment(
      config, {AlgorithmKind::kTag, AlgorithmKind::kIq}, /*runs=*/3);
  ASSERT_TRUE(aggregates.ok());
  ASSERT_EQ(aggregates.value().size(), 2u);
  for (const auto& agg : aggregates.value()) {
    EXPECT_EQ(agg.runs, 3);
    EXPECT_EQ(agg.errors, 0);
    EXPECT_EQ(agg.max_round_energy_mj.count(), 3);
    EXPECT_GT(agg.max_round_energy_mj.mean(), 0.0);
  }
  EXPECT_EQ(aggregates.value()[0].label, "TAG");
  EXPECT_EQ(aggregates.value()[1].label, "IQ");
}

TEST(ExperimentTest, CustomFactoriesRun) {
  const SimulationConfig config = SmallConfig();
  std::vector<ProtocolFactory> factories = {
      DefaultFactory(AlgorithmKind::kPos),
      {"POS-custom",
       [](int64_t k, int64_t lo, int64_t hi, const WireFormat& wire) {
         PosProtocol::Options options;
         options.use_hints = false;
         return std::make_unique<PosProtocol>(k, lo, hi, wire, options);
       }},
  };
  auto aggregates = RunExperiment(config, factories, 2);
  ASSERT_TRUE(aggregates.ok());
  EXPECT_EQ(aggregates.value()[1].label, "POS-custom");
  EXPECT_EQ(aggregates.value()[1].errors, 0);
}

TEST(RegistryTest, NamesRoundTrip) {
  for (AlgorithmKind kind : PaperAlgorithms()) {
    auto parsed = ParseAlgorithmName(AlgorithmName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParseAlgorithmName("NOPE").ok());
}

TEST(RegistryTest, EveryKindConstructs) {
  for (AlgorithmKind kind :
       {AlgorithmKind::kTag, AlgorithmKind::kPos, AlgorithmKind::kHbc,
        AlgorithmKind::kHbcNtb, AlgorithmKind::kIq, AlgorithmKind::kLcllH,
        AlgorithmKind::kLcllS, AlgorithmKind::kSnapshot,
        AlgorithmKind::kSwitching}) {
    auto protocol = MakeProtocol(kind, 5, 0, 1023, WireFormat{});
    ASSERT_NE(protocol, nullptr);
    EXPECT_STREQ(protocol->name(), AlgorithmName(kind));
  }
}

}  // namespace
}  // namespace wsnq

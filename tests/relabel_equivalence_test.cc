// Relabel equivalence: BuildScenario numbers a Network's vertices in the
// routing tree's post order (VertexOrder::kTree) so convergecasts sweep
// memory in order. The numbering must be invisible. For every registered
// protocol, on the synthetic path (one and two values per node, all three
// parent-selection strategies) and on the pressure path, on the reliable
// medium and under bursty loss + ARQ + churn + tree repair, the tree-order
// scenario must give a SimulationResult bit-identical to the same scenario
// assembled in placement order (VertexOrder::kPlacement).

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/registry.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/scenario.h"
#include "core/simulation.h"
#include "tests/test_scenario.h"

namespace wsnq {
namespace {

using testing_support::ExpectResultsIdentical;

struct Case {
  std::string name;
  SimulationConfig config;
};

SimulationConfig Synthetic(int values_per_node, ParentSelection strategy) {
  SimulationConfig config;
  config.num_sensors = 40;
  config.values_per_node = values_per_node;
  config.tree_strategy = strategy;
  config.rounds = 24;
  config.seed = 29;
  return config;
}

SimulationConfig Pressure() {
  SimulationConfig config;
  config.dataset = DatasetKind::kPressure;
  config.pressure.num_stations = 60;
  config.radio_range = 60.0;
  config.rounds = 24;
  config.seed = 5;
  return config;
}

constexpr ParentSelection kStrategies[] = {ParentSelection::kNearest,
                                           ParentSelection::kDegreeBalanced,
                                           ParentSelection::kRandom};

std::string StrategyName(ParentSelection strategy) {
  switch (strategy) {
    case ParentSelection::kNearest:
      return "nearest";
    case ParentSelection::kDegreeBalanced:
      return "balanced";
    case ParentSelection::kRandom:
      return "random";
  }
  return "?";
}

std::vector<Case> SyntheticCases() {
  std::vector<Case> cases;
  for (int vpn : {1, 2}) {
    for (ParentSelection strategy : kStrategies) {
      cases.push_back({"synthetic vpn=" + std::to_string(vpn) + " " +
                           StrategyName(strategy),
                       Synthetic(vpn, strategy)});
    }
  }
  return cases;
}

/// Gilbert–Elliott loss, ARQ, three crashes that recover, and tree repair
/// with `repair` (kRandom repair draws are keyed by vertex id).
void AddFaults(SimulationConfig* config, ParentSelection repair) {
  config->fault.loss = 0.12;
  config->fault.loss_model = LossModel::kGilbertElliott;
  config->fault.burst_len = 3.0;
  config->fault.arq.enabled = true;
  config->fault.crash_nodes = 3;
  config->fault.crash_round = 4;
  config->fault.crash_len = 9;
  config->fault.repair = true;
  config->fault.repair_selection = repair;
}

/// Builds runs 0 and 1 of `c` in both vertex orders and runs every
/// registered protocol over each pair.
void ExpectOrdersEquivalent(const Case& c) {
  for (int run = 0; run < 2; ++run) {
    const std::string where = c.name + " run " + std::to_string(run);
    StatusOr<Scenario> tree =
        BuildScenario(c.config, run, nullptr, VertexOrder::kTree);
    StatusOr<Scenario> placement =
        BuildScenario(c.config, run, nullptr, VertexOrder::kPlacement);
    ASSERT_TRUE(tree.ok()) << where << ": " << tree.status().ToString();
    ASSERT_TRUE(placement.ok()) << where;
    for (Scenario* scenario : {&tree.value(), &placement.value()}) {
      scenario->MaterializeValues(c.config.rounds + 1);
      scenario->MaterializeSortedSensors();
    }
    // The comparison is only meaningful if the numberings differ.
    const Network& net = *tree.value().network;
    bool relabelled = false;
    for (int v = 0; v < net.num_vertices(); ++v) {
      relabelled = relabelled || net.external_id(v) != v;
    }
    EXPECT_TRUE(relabelled) << where;
    EXPECT_EQ(net.root(), net.num_vertices() - 1) << where;

    for (AlgorithmKind kind : AllAlgorithms()) {
      const std::string context = where + " " + AlgorithmName(kind);
      const Scenario& a = tree.value();
      const Scenario& b = placement.value();
      auto pa = MakeProtocol(kind, a.k, a.source->range_min(),
                             a.source->range_max(), c.config.wire);
      auto pb = MakeProtocol(kind, b.k, b.source->range_min(),
                             b.source->range_max(), c.config.wire);
      const SimulationResult ra =
          RunSimulation(a, pa.get(), c.config.rounds, /*check_oracle=*/true,
                        /*keep_trail=*/true, /*collect_metrics=*/true);
      const SimulationResult rb =
          RunSimulation(b, pb.get(), c.config.rounds, /*check_oracle=*/true,
                        /*keep_trail=*/true, /*collect_metrics=*/true);
      ExpectResultsIdentical(ra, rb, context);
    }
  }
}

TEST(RelabelEquivalence, SyntheticReliable) {
  for (const Case& c : SyntheticCases()) ExpectOrdersEquivalent(c);
}

TEST(RelabelEquivalence, SyntheticFaulted) {
  size_t i = 0;
  for (Case c : SyntheticCases()) {
    // Cycle the repair policy so every one runs over a relabelled graph.
    const ParentSelection repair = kStrategies[i++ % 3];
    AddFaults(&c.config, repair);
    c.name += " faulted repair=" + StrategyName(repair);
    ExpectOrdersEquivalent(c);
  }
}

TEST(RelabelEquivalence, PressureReliable) {
  ExpectOrdersEquivalent({"pressure", Pressure()});
}

TEST(RelabelEquivalence, PressureFaulted) {
  for (ParentSelection repair : kStrategies) {
    Case c{"pressure faulted repair=" + StrategyName(repair), Pressure()};
    AddFaults(&c.config, repair);
    ExpectOrdersEquivalent(c);
  }
}

TEST(RelabelEquivalence, ScenarioRowsFollowTheirVertices) {
  // Values, sensors and positions travel with the vertex: tree-order vertex
  // v holds what placement-order vertex external_id(v) holds.
  for (const Case& c :
       {Case{"synthetic", Synthetic(2, ParentSelection::kNearest)},
        Case{"pressure", Pressure()}}) {
    StatusOr<Scenario> tree =
        BuildScenario(c.config, 0, nullptr, VertexOrder::kTree);
    StatusOr<Scenario> placement =
        BuildScenario(c.config, 0, nullptr, VertexOrder::kPlacement);
    ASSERT_TRUE(tree.ok()) << c.name;
    ASSERT_TRUE(placement.ok()) << c.name;
    const Network& a = *tree.value().network;
    const Network& b = *placement.value().network;
    ASSERT_EQ(a.num_vertices(), b.num_vertices()) << c.name;
    EXPECT_EQ(a.external_id(a.root()), b.root()) << c.name;
    EXPECT_EQ(tree.value().k, placement.value().k) << c.name;
    const std::vector<int64_t> rows_a = tree.value().ValuesView(3);
    const std::vector<int64_t> rows_b = placement.value().ValuesView(3);
    for (int v = 0; v < a.num_vertices(); ++v) {
      const int e = a.external_id(v);
      EXPECT_EQ(b.external_id(e), e) << c.name;
      EXPECT_EQ(tree.value().sensor_of_vertex[static_cast<size_t>(v)],
                placement.value().sensor_of_vertex[static_cast<size_t>(e)])
          << c.name << " v=" << v;
      EXPECT_EQ(rows_a[static_cast<size_t>(v)],
                rows_b[static_cast<size_t>(e)])
          << c.name << " v=" << v;
      EXPECT_EQ(std::memcmp(&a.graph().point(v), &b.graph().point(e),
                            sizeof(Point2D)),
                0)
          << c.name << " v=" << v;
      EXPECT_EQ(a.tree().depth[static_cast<size_t>(v)],
                b.tree().depth[static_cast<size_t>(e)])
          << c.name << " v=" << v;
    }
  }
}

}  // namespace
}  // namespace wsnq

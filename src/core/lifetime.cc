#include "core/lifetime.h"

#include <algorithm>
#include <memory>
#include <queue>

#include "algo/oracle.h"
#include "core/scenario.h"
#include "net/radio_graph.h"
#include "net/spanning_tree.h"
#include "util/check.h"

namespace wsnq {
namespace {

/// An epoch's network over the alive subgraph, plus the index mapping back
/// to the original deployment. Original vertices are named by external id
/// (Network::external_id of the base scenario); an epoch's own external
/// ids number its vertices in ascending original id, and its network is
/// relabelled into tree order like every scenario network.
struct Epoch {
  std::unique_ptr<Network> network;
  /// original_of[i]: original external id of the epoch vertex whose
  /// external id is i.
  std::vector<int> original_of;
  int64_t k = 0;
};

/// Builds an epoch network over `alive` original vertices (root included;
/// indexed by original external id). Vertices not reachable from the root
/// are removed from `alive` and reported in `cut_off`. Fails when no
/// sensor remains reachable.
StatusOr<Epoch> BuildEpoch(const Scenario& base, const SimulationConfig& config,
                           std::vector<char>* alive,
                           std::vector<int>* cut_off) {
  const Network& full_net = *base.network;
  const RadioGraph& full = full_net.graph();
  const int root = full_net.root();
  const auto is_alive = [&](int v) {
    return (*alive)[static_cast<size_t>(full_net.external_id(v))] != 0;
  };
  WSNQ_CHECK(is_alive(root));

  // Reachability over the alive subgraph (indexed by base vertex).
  std::vector<char> reachable(alive->size(), 0);
  std::queue<int> frontier;
  frontier.push(root);
  reachable[static_cast<size_t>(root)] = 1;
  while (!frontier.empty()) {
    const int v = frontier.front();
    frontier.pop();
    for (int u : full.neighbors(v)) {
      if (is_alive(u) && !reachable[static_cast<size_t>(u)]) {
        reachable[static_cast<size_t>(u)] = 1;
        frontier.push(u);
      }
    }
  }
  for (size_t e = 0; e < alive->size(); ++e) {
    const int v = full_net.internal_id(static_cast<int>(e));
    if ((*alive)[e] && !reachable[static_cast<size_t>(v)]) {
      (*alive)[e] = 0;
      cut_off->push_back(static_cast<int>(e));
    }
  }

  Epoch epoch;
  std::vector<Point2D> points;
  int epoch_root = -1;
  for (size_t e = 0; e < alive->size(); ++e) {
    if (!(*alive)[e]) continue;
    const int v = full_net.internal_id(static_cast<int>(e));
    if (v == root) epoch_root = static_cast<int>(points.size());
    epoch.original_of.push_back(static_cast<int>(e));
    points.push_back(full.point(v));
  }
  if (epoch.original_of.size() < 2) {
    return Status::FailedPrecondition("no reachable sensors remain");
  }
  RadioGraph graph(std::move(points), config.radio_range);
  StatusOr<SpanningTree> tree =
      BuildRoutingTree(graph, epoch_root, config.tree_strategy, config.seed);
  if (!tree.ok()) return tree.status();
  RoutingTopology topology = RelabelToPostOrder(graph, tree.value());
  epoch.network = std::make_unique<Network>(
      std::move(topology.graph), std::move(topology.tree), config.energy,
      config.packetizer);
  const int64_t sensors = epoch.network->num_sensors();
  epoch.k = std::clamp<int64_t>(
      static_cast<int64_t>(config.phi * static_cast<double>(sensors)), 1,
      sensors);
  return epoch;
}

}  // namespace

StatusOr<LifetimeResult> RunLifetimeSimulation(
    const SimulationConfig& config, AlgorithmKind kind, int run,
    const LifetimeOptions& options) {
  StatusOr<Scenario> base = BuildScenario(config, run);
  if (!base.ok()) return base.status();
  const Network& base_net = *base.value().network;
  const int total_vertices = base_net.num_vertices();
  const int total_sensors = base_net.num_sensors();
  const int root = base_net.external_id(base_net.root());

  std::vector<char> alive(static_cast<size_t>(total_vertices), 1);
  std::vector<double> battery(static_cast<size_t>(total_vertices),
                              config.energy.initial_energy_mj);

  LifetimeResult result;
  int64_t round = 0;
  int gone = 0;
  const int stop_gone = static_cast<int>(
      (1.0 - options.stop_alive_fraction) * total_sensors);

  while (round < options.max_rounds && gone <= stop_gone) {
    std::vector<int> cut_off;
    StatusOr<Epoch> epoch_or =
        BuildEpoch(base.value(), config, &alive, &cut_off);
    for (int v : cut_off) {
      result.deaths.push_back({round, v, /*battery=*/false});
      ++gone;
    }
    if (!epoch_or.ok() || gone > stop_gone) break;
    Epoch& epoch = epoch_or.value();
    Network* net = epoch.network.get();

    auto protocol =
        MakeProtocol(kind, epoch.k, base.value().source->range_min(),
                     base.value().source->range_max(), config.wire);
    ++result.reinit_epochs;

    // Run this epoch until somebody dies (round 0 of the protocol is its
    // re-initialization, charged like any other round).
    bool epoch_alive = true;
    for (int64_t epoch_round = 0; epoch_alive && round < options.max_rounds;
         ++epoch_round, ++round) {
      // Measurements of the epoch's vertices (by epoch vertex).
      std::vector<int64_t> values(epoch.original_of.size(), 0);
      std::vector<int64_t> sensors;
      sensors.reserve(epoch.original_of.size() - 1);
      for (size_t i = 0; i < epoch.original_of.size(); ++i) {
        const int v = net->internal_id(static_cast<int>(i));
        const int original = epoch.original_of[i];
        const int sensor = base.value().sensor_of_vertex[static_cast<size_t>(
            base_net.internal_id(original))];
        if (sensor >= 0) {
          values[static_cast<size_t>(v)] =
              base.value().source->Value(sensor, round);
          if (v != net->root()) {
            sensors.push_back(values[static_cast<size_t>(v)]);
          }
        }
      }
      // The original root carries no sensor; if an ordinary vertex became
      // the epoch root its measurement simply goes unobserved this epoch.
      net->BeginRound();
      protocol->RunRound(net, values, epoch_round);
      ++result.total_rounds;
      if (!sensors.empty() &&
          protocol->quantile() == OracleKth(sensors, epoch.k)) {
        ++result.exact_rounds;
      }

      // Drain batteries; collect deaths.
      bool any_death = false;
      for (size_t i = 0; i < epoch.original_of.size(); ++i) {
        const int original = epoch.original_of[i];
        if (original == root) continue;  // the sink has wall power
        double& charge = battery[static_cast<size_t>(original)];
        charge -= net->round_energy(net->internal_id(static_cast<int>(i)));
        if (charge <= 0.0 && alive[static_cast<size_t>(original)]) {
          alive[static_cast<size_t>(original)] = 0;
          result.deaths.push_back({round, original, /*battery=*/true});
          ++gone;
          any_death = true;
        }
      }
      if (any_death) {
        if (result.first_death_round < 0) result.first_death_round = round;
        if (result.p10_death_round < 0 && gone * 10 >= total_sensors) {
          result.p10_death_round = round;
        }
        if (result.p25_death_round < 0 && gone * 4 >= total_sensors) {
          result.p25_death_round = round;
        }
        epoch_alive = false;  // rebuild over the survivors
      }
    }
  }
  result.end_round = round;
  return result;
}

}  // namespace wsnq

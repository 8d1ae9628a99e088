#include "core/scenario.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/scenario_cache.h"
#include "data/pressure_trace.h"
#include "data/range_scaler.h"
#include "data/som.h"
#include "data/synthetic_trace.h"
#include "fault/fault_plan.h"
#include "net/placement.h"
#include "net/radio_graph.h"
#include "net/spanning_tree.h"
#include "util/check.h"
#include "util/rng.h"

namespace wsnq {

void Scenario::FillRow(int64_t round, std::vector<int64_t>* row) const {
  row->assign(sensor_of_vertex.size(), 0);
  for (size_t v = 0; v < sensor_of_vertex.size(); ++v) {
    if (sensor_of_vertex[v] >= 0) {
      (*row)[v] = source->Value(sensor_of_vertex[v], round);
    }
  }
}

void Scenario::MaterializeValues(int64_t rounds) {
  value_rows_.resize(static_cast<size_t>(rounds));
  for (int64_t round = 0; round < rounds; ++round) {
    FillRow(round, &value_rows_[static_cast<size_t>(round)]);
  }
}

void Scenario::MaterializeSortedSensors() {
  sorted_sensor_rows_.resize(value_rows_.size());
  for (size_t round = 0; round < value_rows_.size(); ++round) {
    const std::vector<int64_t>& row = value_rows_[round];
    std::vector<int64_t>& sorted = sorted_sensor_rows_[round];
    sorted.clear();
    sorted.reserve(sensor_of_vertex.size());
    for (size_t v = 0; v < sensor_of_vertex.size(); ++v) {
      // The root is the only vertex without a sensor, so this multiset is
      // exactly SensorValues(net, row).
      if (sensor_of_vertex[v] >= 0) sorted.push_back(row[v]);
    }
    std::sort(sorted.begin(), sorted.end());
  }
}

const std::vector<int64_t>* Scenario::SortedSensorsView(int64_t round) const {
  if (round >= 0 &&
      round < static_cast<int64_t>(sorted_sensor_rows_.size())) {
    return &sorted_sensor_rows_[static_cast<size_t>(round)];
  }
  return nullptr;
}

const std::vector<int64_t>& Scenario::ValuesView(int64_t round) const {
  if (round >= 0 && round < materialized_rounds()) {
    return value_rows_[static_cast<size_t>(round)];
  }
  FillRow(round, &scratch_row_);
  return scratch_row_;
}

namespace {

/// Cached artifact under `key`, or nullptr when there is no store / the
/// store misses. The caller then builds the artifact itself and offers it
/// back with Put — both paths execute the identical construction code, so
/// cached and uncached scenarios are bit-identical by construction.
template <typename T>
std::shared_ptr<const T> Lookup(internal::ArtifactStore* store,
                                const std::string& key) {
  if (store == nullptr) return nullptr;
  return std::static_pointer_cast<const T>(store->Get(key));
}

/// The routing topology of `graph` (placement order) rooted at `root`:
/// the tree built there, then both renumbered into the tree's post order —
/// or left as they are for VertexOrder::kPlacement.
StatusOr<std::shared_ptr<const RoutingTopology>>
BuildRoutingTopology(std::shared_ptr<const RadioGraph> graph, int root,
                     const SimulationConfig& config, uint64_t salt,
                     VertexOrder order) {
  StatusOr<SpanningTree> routing =
      BuildRoutingTree(*graph, root, config.tree_strategy, salt);
  if (!routing.ok()) return routing.status();
  if (order == VertexOrder::kPlacement) {
    return std::make_shared<const RoutingTopology>(
        RoutingTopology{std::move(graph), std::move(routing).value()});
  }
  return std::make_shared<const RoutingTopology>(
      RelabelToPostOrder(*graph, routing.value()));
}

/// Per-run assembly, the step both datasets meet at: the Network gets its
/// own copy of the tree template (fault repair mutates it) while aliasing
/// the immutable graph. `sensor_of` maps a non-root vertex's external id to
/// its index in the value source.
template <typename SensorOf>
Scenario AssembleScenario(const SimulationConfig& config,
                          const RoutingTopology& topology,
                          SensorOf sensor_of) {
  Scenario scenario;
  scenario.network = std::make_unique<Network>(
      topology.graph, SpanningTree(topology.tree), config.energy,
      config.packetizer);
  const Network& net = *scenario.network;
  scenario.sensor_of_vertex.assign(static_cast<size_t>(net.num_vertices()),
                                   -1);
  for (int v = 0; v < net.num_vertices(); ++v) {
    if (net.is_root(v)) continue;
    scenario.sensor_of_vertex[static_cast<size_t>(v)] =
        sensor_of(net.external_id(v));
  }
  const int64_t n = net.num_sensors();
  scenario.k = std::clamp<int64_t>(
      static_cast<int64_t>(config.phi * static_cast<double>(n)), 1, n);
  return scenario;
}

/// A synthetic deployment as drawn: the multi-value-expanded radio graph
/// (placement order) and its root.
struct DeploymentDraw {
  int root = 0;
  std::shared_ptr<const RadioGraph> graph;
};

/// Draws run `run`'s synthetic deployment. A pure function of (config,
/// run): one Rng stream draws the placement and then the root.
StatusOr<DeploymentDraw> DrawSyntheticDeployment(
    const SimulationConfig& config, int run) {
  Rng rng(config.seed * 7919 + static_cast<uint64_t>(run) * 104729 + 13);
  // |N| sensors plus the root vertex.
  StatusOr<RadioGraph> placed = ConnectedDeployment(
      config.num_sensors + 1, config.area_width, config.area_height,
      config.radio_range, &rng);
  if (!placed.ok()) return placed.status();

  const int root = static_cast<int>(rng.UniformInt(0, config.num_sensors));
  WSNQ_CHECK_GE(config.values_per_node, 1);
  DeploymentDraw drawn;
  if (config.values_per_node == 1) {
    // Nothing to expand: the connectivity test's graph is the deployment.
    drawn.root = root;
    drawn.graph =
        std::make_shared<const RadioGraph>(std::move(placed).value());
    return drawn;
  }
  // Multi-value nodes (§2): replicate each sensor position so every extra
  // measurement lives on an "artificial child node" colocated with (and
  // therefore radio-adjacent to) its physical host.
  const std::vector<Point2D>& placement = placed.value().points();
  std::vector<Point2D> points;
  points.reserve(placement.size() *
                 static_cast<size_t>(config.values_per_node));
  for (size_t v = 0; v < placement.size(); ++v) {
    const int copies =
        static_cast<int>(v) == root ? 1 : config.values_per_node;
    if (static_cast<int>(v) == root) {
      drawn.root = static_cast<int>(points.size());
    }
    points.insert(points.end(), static_cast<size_t>(copies), placement[v]);
  }
  drawn.graph = std::make_shared<const RadioGraph>(std::move(points),
                                                   config.radio_range);
  return drawn;
}

StatusOr<Scenario> BuildSynthetic(const SimulationConfig& config, int run,
                                  internal::ArtifactStore* store,
                                  VertexOrder order) {
  // Deployment (placement + expanded root): one Rng stream draws the
  // placement and then the root, so they form one cache unit.
  const std::string deploy_key = internal::SyntheticDeploymentKey(config, run);
  std::shared_ptr<const internal::SyntheticDeployment> deploy =
      Lookup<internal::SyntheticDeployment>(store, deploy_key);
  // The placement-order radio graph, when this call drew the deployment.
  std::shared_ptr<const RadioGraph> graph;
  if (deploy == nullptr) {
    StatusOr<DeploymentDraw> drawn = DrawSyntheticDeployment(config, run);
    if (!drawn.ok()) return drawn.status();
    graph = std::move(drawn.value().graph);
    auto built = std::make_shared<internal::SyntheticDeployment>();
    built->root = drawn.value().root;
    // Sensor positions (normalized) feed the spatial correlation.
    const std::vector<Point2D>& points = graph->points();
    built->normalized.reserve(points.size() - 1);
    for (size_t v = 0; v < points.size(); ++v) {
      if (static_cast<int>(v) == built->root) continue;
      built->normalized.push_back({points[v].x / config.area_width,
                                   points[v].y / config.area_height});
    }
    if (store != nullptr) store->Put(deploy_key, built);
    deploy = std::move(built);
  }

  const uint64_t tree_salt = config.seed * 53 + static_cast<uint64_t>(run);
  const std::string tree_key = internal::RoutingTreeKey(
      deploy_key, deploy->root, config.tree_strategy, tree_salt);
  std::shared_ptr<const RoutingTopology> topology =
      Lookup<RoutingTopology>(store, tree_key);
  if (topology == nullptr) {
    if (graph == nullptr) {
      // The cached deployment keeps no graph (see SyntheticDeployment):
      // draw it again, bit-identically.
      StatusOr<DeploymentDraw> drawn = DrawSyntheticDeployment(config, run);
      if (!drawn.ok()) return drawn.status();
      graph = std::move(drawn.value().graph);
    }
    auto built = BuildRoutingTopology(std::move(graph), deploy->root, config,
                                      tree_salt, order);
    if (!built.ok()) return built.status();
    if (store != nullptr) store->Put(tree_key, built.value());
    topology = std::move(built).value();
  }

  const std::string source_key = internal::SyntheticSourceKey(config, run);
  std::shared_ptr<const SyntheticTrace> trace =
      Lookup<SyntheticTrace>(store, source_key);
  if (trace == nullptr) {
    SyntheticTrace::Options options = config.synthetic;
    options.seed = config.seed * 31 + static_cast<uint64_t>(run) + 1;
    auto built =
        std::make_shared<const SyntheticTrace>(deploy->normalized, options);
    if (store != nullptr) store->Put(source_key, built);
    trace = std::move(built);
  }

  // Sensors are the non-root vertices in placement order.
  const int root = deploy->root;
  Scenario scenario = AssembleScenario(
      config, *topology, [root](int e) { return e < root ? e : e - 1; });
  scenario.shared_sources.push_back(trace);
  scenario.source = trace.get();
  return scenario;
}

StatusOr<Scenario> BuildPressure(const SimulationConfig& config, int run,
                                 internal::ArtifactStore* store,
                                 VertexOrder order) {
  // The trace (and its affine rescaling, which views it) is fixed across
  // runs (§5.1) — one cache unit, built once per seed, not per run.
  const std::string workload_key = internal::PressureWorkloadKey(config);
  std::shared_ptr<const internal::PressureWorkload> workload =
      Lookup<internal::PressureWorkload>(store, workload_key);
  if (workload == nullptr) {
    PressureTrace::Options options = config.pressure;
    options.seed = config.seed;  // the trace is fixed across runs (§5.1)
    // Size the sample grid to this simulation, not the standalone default:
    // the generator's cost is linear in samples, and a 60-round bench has
    // no use for a 260-round grid. (+2: protocols peek one round ahead and
    // the init drill reads round 0 before the query clock starts.)
    options.rounds = config.rounds + 2;
    // Canonical cache shape: fold skip into the coverage stride and store
    // the trace at skip 0, so every skip point the coverage serves shares
    // one artifact (and one SOM placement). The per-config stride is
    // applied by a StridedValueSource view at assembly time below — for a
    // lone skip point (max_skip = 0) the sample grid, and therefore every
    // value, is bit-identical to a trace built directly at that skip.
    options.max_skip = std::max(options.skip, options.max_skip);
    options.skip = 0;
    auto built = std::make_shared<internal::PressureWorkload>();
    built->trace = std::make_shared<const PressureTrace>(options);
    built->scaled = std::make_shared<const ScaledValueSource>(
        built->trace.get(), config.pressure_scale_bits);
    if (store != nullptr) store->Put(workload_key, built);
    workload = std::move(built);
  }

  // SOM placement from the first measurements (§5.1.3) — also fixed across
  // runs, so the station positions are one shared artifact. Like a
  // synthetic deployment it keeps no radio graph: every run's routing
  // topology holds one, in that run's tree order.
  const std::string deploy_key = internal::PressureDeploymentKey(config);
  std::shared_ptr<const std::vector<Point2D>> stations =
      Lookup<std::vector<Point2D>>(store, deploy_key);
  // The placement-order radio graph, when this call built it.
  std::shared_ptr<const RadioGraph> graph;
  if (stations == nullptr) {
    const std::vector<double> features =
        workload->trace->FirstMeasurements();
    SelfOrganizingMap::Options som_options;
    som_options.seed = config.seed * 131 + 7;
    SelfOrganizingMap som(features, som_options);
    auto points = std::make_shared<const std::vector<Point2D>>(
        som.PlaceStations(features, config.area_width, config.area_height));
    graph = std::make_shared<const RadioGraph>(*points, config.radio_range);
    if (!graph->IsConnected()) {
      return Status::FailedPrecondition(
          "SOM station placement is disconnected at this radio range");
    }
    if (store != nullptr) store->Put(deploy_key, points);
    stations = std::move(points);
  }

  // Only the root changes between runs.
  Rng rng(config.seed * 524287 + static_cast<uint64_t>(run) * 8191 + 3);
  const int root = static_cast<int>(
      rng.UniformInt(0, static_cast<int64_t>(stations->size()) - 1));

  const uint64_t tree_salt = config.seed * 53 + static_cast<uint64_t>(run);
  const std::string tree_key =
      internal::RoutingTreeKey(deploy_key, root, config.tree_strategy,
                               tree_salt);
  std::shared_ptr<const RoutingTopology> topology =
      Lookup<RoutingTopology>(store, tree_key);
  if (topology == nullptr) {
    if (graph == nullptr) {
      graph = std::make_shared<const RadioGraph>(*stations,
                                                 config.radio_range);
    }
    auto built =
        BuildRoutingTopology(std::move(graph), root, config, tree_salt, order);
    if (!built.ok()) return built.status();
    if (store != nullptr) store->Put(tree_key, built.value());
    topology = std::move(built).value();
  }

  // A sensor's index is its station index, i.e. its placement-order id.
  Scenario scenario =
      AssembleScenario(config, *topology, [](int e) { return e; });
  // The trace rides along so the scaler's raw back-pointer stays valid for
  // the scenario's whole lifetime, wherever the workload was built. The
  // cached trace is canonical (skip 0, see above); a strided view applies
  // this config's skip on top of the scaled source.
  scenario.shared_sources.push_back(workload->trace);
  scenario.shared_sources.push_back(workload->scaled);
  if (config.pressure.skip > 0) {
    auto strided = std::make_shared<const StridedValueSource>(
        workload->scaled.get(), config.pressure.skip);
    scenario.source = strided.get();
    scenario.shared_sources.push_back(std::move(strided));
  } else {
    scenario.source = workload->scaled.get();
  }
  return scenario;
}

}  // namespace

StatusOr<Scenario> BuildScenario(const SimulationConfig& config, int run) {
  return BuildScenario(config, run, nullptr);
}

StatusOr<Scenario> BuildScenario(const SimulationConfig& config, int run,
                                 internal::ArtifactStore* store,
                                 VertexOrder order) {
  WSNQ_CHECK_GE(config.num_sensors, 1);
  // The placement-order reference shares no artifact with tree-order
  // scenarios: its topology is numbered differently under the same key.
  if (order == VertexOrder::kPlacement) store = nullptr;
  StatusOr<Scenario> scenario = Status::InvalidArgument("unknown dataset");
  switch (config.dataset) {
    case DatasetKind::kSynthetic:
      scenario = BuildSynthetic(config, run, store, order);
      break;
    case DatasetKind::kPressure:
      scenario = BuildPressure(config, run, store, order);
      break;
  }
  if (scenario.ok() && config.fault.enabled()) {
    // Counter-based fault injection: the plan derives every decision from
    // (config.seed, run, round/tick, src, dst), so no per-run reseeding
    // arithmetic is needed — and no shared stream can leak draw order
    // across runs (docs/hardening.md, "Concurrency & determinism").
    Network* network = scenario.value().network.get();
    network->set_transport_policy(std::make_unique<FaultPlan>(
        config.fault, config.seed, run, network->num_vertices(),
        network->external_id(network->root())));
  }
  return scenario;
}

}  // namespace wsnq

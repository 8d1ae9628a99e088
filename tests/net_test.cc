#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "fault/scripted_oracle.h"
#include "net/energy_model.h"
#include "net/network.h"
#include "net/packetizer.h"
#include "net/placement.h"
#include "net/radio_graph.h"
#include "net/spanning_tree.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/trace.h"

namespace wsnq {
namespace {

std::vector<Point2D> LinePoints(int n, double spacing) {
  std::vector<Point2D> points;
  for (int i = 0; i < n; ++i) points.push_back({i * spacing, 0.0});
  return points;
}

TEST(PlacementTest, UniformStaysInArea) {
  Rng rng(1);
  const auto points = UniformPlacement(500, 200.0, 100.0, &rng);
  ASSERT_EQ(points.size(), 500u);
  for (const auto& p : points) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 200.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 100.0);
  }
}

TEST(PlacementTest, JitteredGridConnectedAtModestRange) {
  Rng rng(2);
  const auto points = JitteredGridPlacement(256, 200.0, 200.0, 0.25, &rng);
  // Cell size 12.5 m; 20 m covers neighbours even with max jitter.
  EXPECT_TRUE(RadioGraph(points, 20.0).IsConnected());
}

TEST(PlacementTest, ConnectedPlacementIsConnected) {
  Rng rng(3);
  auto result = ConnectedPlacement(128, 200.0, 200.0, 35.0, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(RadioGraph(result.value(), 35.0).IsConnected());
}

TEST(PlacementTest, ImpossibleRangeFails) {
  Rng rng(4);
  auto result = ConnectedPlacement(400, 200.0, 200.0, 0.5, &rng, 3);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RadioGraphTest, EdgesMatchBruteForce) {
  Rng rng(5);
  const auto points = UniformPlacement(120, 100.0, 100.0, &rng);
  const double rho = 18.0;
  RadioGraph graph(points, rho);
  for (int v = 0; v < graph.size(); ++v) {
    std::vector<int> expected;
    for (int u = 0; u < graph.size(); ++u) {
      if (u != v && Distance(points[static_cast<size_t>(v)],
                             points[static_cast<size_t>(u)]) <= rho) {
        expected.push_back(u);
      }
    }
    const auto nb = graph.neighbors(v);
    EXPECT_EQ(std::vector<int>(nb.begin(), nb.end()), expected)
        << "vertex " << v;
  }
}

TEST(RadioGraphTest, SymmetricAdjacency) {
  Rng rng(6);
  RadioGraph graph(UniformPlacement(200, 200.0, 200.0, &rng), 30.0);
  for (int v = 0; v < graph.size(); ++v) {
    for (int u : graph.neighbors(v)) {
      const auto& back = graph.neighbors(u);
      EXPECT_TRUE(std::find(back.begin(), back.end(), v) != back.end());
    }
  }
}

// --- CSR graph against an O(n^2) reference --------------------------------

// Brute-force neighbours of `v`: every u != v within rho, ascending.
std::vector<int> BruteForceNeighbors(const std::vector<Point2D>& points,
                                     double rho, int v) {
  std::vector<int> expected;
  for (int u = 0; u < static_cast<int>(points.size()); ++u) {
    if (u != v && SquaredDistance(points[static_cast<size_t>(v)],
                                  points[static_cast<size_t>(u)]) <=
                      rho * rho) {
      expected.push_back(u);
    }
  }
  return expected;
}

// Checks the vertices `v % stride == 0` against the reference (neighbours
// identical, so also sorted) and for symmetry; every list for strict order.
void ExpectMatchesBruteForce(const std::vector<Point2D>& points, double rho,
                             const std::string& context, int stride = 1) {
  const RadioGraph graph(points, rho);
  ASSERT_EQ(graph.size(), static_cast<int>(points.size())) << context;
  for (int v = 0; v < graph.size(); ++v) {
    const auto nb = graph.neighbors(v);
    EXPECT_TRUE(std::adjacent_find(nb.begin(), nb.end(),
                                   std::greater_equal<int>()) == nb.end())
        << context << ": neighbours of " << v << " not strictly ascending";
    if (v % stride != 0) continue;
    EXPECT_EQ(std::vector<int>(nb.begin(), nb.end()),
              BruteForceNeighbors(points, rho, v))
        << context << ": vertex " << v;
    for (int u : nb) {
      const auto back = graph.neighbors(u);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), v))
          << context << ": edge " << v << "-" << u << " not symmetric";
    }
  }
}

TEST(RadioGraphPropertyTest, UniformPlacementsMatchBruteForce) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (int n : {50, 400}) {
      for (double rho : {12.0, 35.0, 90.0}) {
        Rng rng(seed);
        ExpectMatchesBruteForce(UniformPlacement(n, 200.0, 150.0, &rng), rho,
                                "seed=" + std::to_string(seed) +
                                    " n=" + std::to_string(n) +
                                    " rho=" + std::to_string(rho));
      }
    }
  }
}

TEST(RadioGraphPropertyTest, DegenerateShapesMatchBruteForce) {
  // All points coincident: the complete graph, in one grid cell.
  ExpectMatchesBruteForce(std::vector<Point2D>(60, {5.0, 5.0}), 1.0,
                          "coincident");
  // Collinear, horizontal and diagonal: a one-row grid, and a grid whose
  // occupied cells form a diagonal.
  std::vector<Point2D> row;
  std::vector<Point2D> diagonal;
  for (int i = 0; i < 150; ++i) {
    row.push_back({i * 0.7, 3.0});
    diagonal.push_back({i * 0.5, i * 0.5});
  }
  ExpectMatchesBruteForce(row, 2.0, "row");
  ExpectMatchesBruteForce(diagonal, 1.5, "diagonal");
  // Tiny graphs.
  ExpectMatchesBruteForce({{1.0, 2.0}}, 5.0, "n=1");
  ExpectMatchesBruteForce({{0.0, 0.0}, {3.0, 4.0}}, 5.0, "n=2 in range");
  ExpectMatchesBruteForce({{0.0, 0.0}, {3.0, 4.0}}, 4.999, "n=2 apart");
}

TEST(RadioGraphPropertyTest, ExtremeRangesMatchBruteForce) {
  Rng rng(9);
  std::vector<Point2D> points = UniformPlacement(500, 200.0, 200.0, &rng);
  // A few exact duplicates, so the tiny range still has edges.
  for (size_t i = 0; i < 20; ++i) points[i + 100] = points[i];
  // rho far below the spread: the grid widens its cells past rho.
  ExpectMatchesBruteForce(points, 1e-3, "rho=1e-3");
  // rho far above the spread: the complete graph.
  ExpectMatchesBruteForce(points, 1e4, "rho=1e4");
}

TEST(RadioGraphPropertyTest, DensifyingFig6ShapeMatchesBruteForce) {
  // fig6 grows n at a fixed 200 x 200 area: 16k nodes at rho = 35 have a
  // mean degree above 1,000. Brute force on every 97th vertex.
  Rng rng(6);
  ExpectMatchesBruteForce(UniformPlacement(16384, 200.0, 200.0, &rng), 35.0,
                          "fig6 n=16384", /*stride=*/97);
}

TEST(RadioGraphTest, DisconnectedDetected) {
  std::vector<Point2D> points = {{0, 0}, {1, 0}, {100, 0}, {101, 0}};
  RadioGraph graph(points, 2.0);
  EXPECT_FALSE(graph.IsConnected());
  RadioGraph joined(points, 150.0);
  EXPECT_TRUE(joined.IsConnected());
}

TEST(SpanningTreeTest, LineTopology) {
  RadioGraph graph(LinePoints(5, 10.0), 10.5);
  auto tree = BuildShortestPathTree(graph, 0);
  ASSERT_TRUE(tree.ok());
  const SpanningTree& t = tree.value();
  EXPECT_EQ(t.parent[0], -1);
  for (int v = 1; v < 5; ++v) {
    EXPECT_EQ(t.parent[static_cast<size_t>(v)], v - 1);
    EXPECT_EQ(t.depth[static_cast<size_t>(v)], v);
  }
}

TEST(SpanningTreeTest, HopOptimalDepths) {
  Rng rng(7);
  auto placement = ConnectedPlacement(150, 200.0, 200.0, 40.0, &rng);
  ASSERT_TRUE(placement.ok());
  RadioGraph graph(placement.value(), 40.0);
  auto tree = BuildShortestPathTree(graph, 3);
  ASSERT_TRUE(tree.ok());
  const SpanningTree& t = tree.value();
  // BFS depths are hop-optimal: every edge differs by at most one level.
  for (int v = 0; v < graph.size(); ++v) {
    for (int u : graph.neighbors(v)) {
      EXPECT_LE(std::abs(t.depth[static_cast<size_t>(v)] -
                         t.depth[static_cast<size_t>(u)]),
                1);
    }
  }
  // Parents are radio neighbours one hop closer.
  for (int v = 0; v < graph.size(); ++v) {
    if (v == 3) continue;
    const int p = t.parent[static_cast<size_t>(v)];
    EXPECT_EQ(t.depth[static_cast<size_t>(p)],
              t.depth[static_cast<size_t>(v)] - 1);
    const auto& nb = graph.neighbors(v);
    EXPECT_TRUE(std::find(nb.begin(), nb.end(), p) != nb.end());
  }
}

TEST(SpanningTreeTest, OrdersAreConsistent) {
  Rng rng(8);
  auto placement = ConnectedPlacement(100, 200.0, 200.0, 45.0, &rng);
  ASSERT_TRUE(placement.ok());
  RadioGraph graph(placement.value(), 45.0);
  auto tree = BuildShortestPathTree(graph, 0);
  ASSERT_TRUE(tree.ok());
  const SpanningTree& t = tree.value();
  ASSERT_EQ(static_cast<int>(t.pre_order.size()), graph.size());
  ASSERT_EQ(static_cast<int>(t.post_order.size()), graph.size());
  // In post order every child appears before its parent.
  std::vector<int> position(static_cast<size_t>(graph.size()));
  for (size_t i = 0; i < t.post_order.size(); ++i) {
    position[static_cast<size_t>(t.post_order[i])] = static_cast<int>(i);
  }
  for (int v = 0; v < graph.size(); ++v) {
    for (int c : t.children[static_cast<size_t>(v)]) {
      EXPECT_LT(position[static_cast<size_t>(c)],
                position[static_cast<size_t>(v)]);
    }
  }
  // In pre order every parent appears before its children.
  for (size_t i = 0; i < t.pre_order.size(); ++i) {
    position[static_cast<size_t>(t.pre_order[i])] = static_cast<int>(i);
  }
  for (int v = 0; v < graph.size(); ++v) {
    if (v == 0) continue;
    EXPECT_LT(position[static_cast<size_t>(t.parent[static_cast<size_t>(v)])],
              position[static_cast<size_t>(v)]);
  }
}

TEST(RoutingTreeTest, AllStrategiesAreHopOptimal) {
  Rng rng(55);
  auto placement = ConnectedPlacement(120, 200.0, 200.0, 45.0, &rng);
  ASSERT_TRUE(placement.ok());
  RadioGraph graph(placement.value(), 45.0);
  const auto reference = BuildShortestPathTree(graph, 0);
  ASSERT_TRUE(reference.ok());
  for (ParentSelection selection :
       {ParentSelection::kNearest, ParentSelection::kDegreeBalanced,
        ParentSelection::kRandom}) {
    auto tree = BuildRoutingTree(graph, 0, selection, 9);
    ASSERT_TRUE(tree.ok());
    // Identical BFS depths regardless of parent choice.
    EXPECT_EQ(tree.value().depth, reference.value().depth);
    // Parents are radio neighbours exactly one hop closer.
    for (int v = 1; v < graph.size(); ++v) {
      const int p = tree.value().parent[static_cast<size_t>(v)];
      EXPECT_EQ(tree.value().depth[static_cast<size_t>(p)],
                tree.value().depth[static_cast<size_t>(v)] - 1);
      const auto& nb = graph.neighbors(v);
      EXPECT_TRUE(std::find(nb.begin(), nb.end(), p) != nb.end());
    }
  }
}

TEST(RoutingTreeTest, DegreeBalancingFlattensFanout) {
  Rng rng(57);
  auto placement = ConnectedPlacement(200, 200.0, 200.0, 50.0, &rng);
  ASSERT_TRUE(placement.ok());
  RadioGraph graph(placement.value(), 50.0);
  auto fanout_max = [&](ParentSelection selection) {
    auto tree = BuildRoutingTree(graph, 0, selection, 3);
    const SpanningTree& t = tree.value();
    size_t worst = 0;
    for (int v = 0; v < t.size(); ++v) {
      worst = std::max(worst, t.children[static_cast<size_t>(v)].size());
    }
    return worst;
  };
  EXPECT_LE(fanout_max(ParentSelection::kDegreeBalanced),
            fanout_max(ParentSelection::kNearest));
}

TEST(RoutingTreeTest, RandomSelectionIsSeedDeterministic) {
  Rng rng(59);
  auto placement = ConnectedPlacement(80, 200.0, 200.0, 50.0, &rng);
  ASSERT_TRUE(placement.ok());
  RadioGraph graph(placement.value(), 50.0);
  auto a = BuildRoutingTree(graph, 0, ParentSelection::kRandom, 42);
  auto b = BuildRoutingTree(graph, 0, ParentSelection::kRandom, 42);
  auto c = BuildRoutingTree(graph, 0, ParentSelection::kRandom, 43);
  EXPECT_EQ(a.value().parent, b.value().parent);
  EXPECT_NE(a.value().parent, c.value().parent);
}

// FNV-1a over a parent array: a compact fingerprint for the goldens below.
uint64_t ParentHash(const std::vector<int>& parent) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int p : parent) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(p));
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Pins the exact parent choice of every ParentSelection policy on seeded
// deployments, dense (fixed 200 x 200 area) and at constant density (side
// 200 * sqrt(n / 256)). Any change to the candidate scan order, the level
// processing order or the kRandom draw shows up here first.
TEST(RoutingTreeTest, ParentArraysMatchGolden) {
  struct Case {
    int n;
    double side;
    uint64_t seed;
    int root;
    uint64_t nearest, balanced, random;
  };
  const Case cases[] = {
      {300, 200.0, 11, 0, 17987751262189265079ULL, 8177908115761050256ULL,
       8147461595997927278ULL},
      {300, 200.0, 11, 137, 1219813934936722293ULL, 830405621071342081ULL,
       6063692135414853213ULL},
      {4096, 800.0, 12, 2048, 12662689592777330606ULL,
       7916645100176904965ULL, 1366098505333075174ULL},
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    auto placement = ConnectedPlacement(c.n, c.side, c.side, 35.0, &rng);
    ASSERT_TRUE(placement.ok());
    const RadioGraph graph(std::move(placement).value(), 35.0);
    const uint64_t want[] = {c.nearest, c.balanced, c.random};
    const ParentSelection policies[] = {ParentSelection::kNearest,
                                        ParentSelection::kDegreeBalanced,
                                        ParentSelection::kRandom};
    for (int i = 0; i < 3; ++i) {
      auto tree = BuildRoutingTree(graph, c.root, policies[i], 99);
      ASSERT_TRUE(tree.ok());
      EXPECT_EQ(ParentHash(tree.value().parent), want[i])
          << "n=" << c.n << " root=" << c.root << " policy=" << i;
    }
  }
}

TEST(SpanningTreeTest, DisconnectedFails) {
  std::vector<Point2D> points = {{0, 0}, {1, 0}, {50, 0}};
  RadioGraph graph(points, 2.0);
  EXPECT_FALSE(BuildShortestPathTree(graph, 0).ok());
}

TEST(PacketizerTest, SinglePacket) {
  Packetizer p;  // 128-bit header, 1024-bit payload
  const auto msg = p.Packetize(100);
  EXPECT_EQ(msg.packets, 1);
  EXPECT_EQ(msg.total_bits, 228);
}

TEST(PacketizerTest, Fragmentation) {
  Packetizer p;
  const auto msg = p.Packetize(1025);  // one bit over a packet
  EXPECT_EQ(msg.packets, 2);
  EXPECT_EQ(msg.total_bits, 1025 + 2 * 128);
  const auto exact = p.Packetize(2048);
  EXPECT_EQ(exact.packets, 2);
}

TEST(PacketizerTest, EmptyPayloadIsBeacon) {
  Packetizer p;
  const auto msg = p.Packetize(0);
  EXPECT_EQ(msg.packets, 1);
  EXPECT_EQ(msg.total_bits, 128);
}

TEST(PacketizerTest, ValuesPerPacket) {
  Packetizer p;
  EXPECT_EQ(p.ValuesPerPacket(16), 64);  // §5.1.6: 64 two-byte measurements
}

TEST(EnergyModelTest, CostFormulas) {
  EnergyModel model;
  // 1000 bits at 35 m: 1000 * (50e-6 + 10e-9 * 1225) mJ.
  EXPECT_NEAR(model.SendCost(1000, 35.0), 1000 * (50e-6 + 10e-9 * 1225.0),
              1e-12);
  EXPECT_NEAR(model.RecvCost(1000), 0.05, 1e-12);
  // Sending always costs more than receiving.
  EXPECT_GT(model.SendCost(100, 15.0), model.RecvCost(100));
}

TEST(EnergyModelTest, SendCostIsBitsTimesPerBitCost) {
  EnergyModel model;
  model.path_loss_exponent = 3.1;
  for (int64_t bits : {0, 1, 37, 4096}) {
    for (double rho : {0.5, 35.0, 71.3}) {
      // Exact equality: the network multiplies a per-bit cost it computed
      // once, and must reproduce SendCost bit for bit.
      EXPECT_EQ(model.SendCost(bits, rho),
                static_cast<double>(bits) * model.SendCostPerBit(rho));
    }
  }
}

// --- Tree-order relabelling (RelabelToPostOrder) ---------------------------

/// A connected 150-vertex deployment, its routing tree under `selection`,
/// and both relabelled into tree order.
struct Relabelled {
  RadioGraph graph;
  SpanningTree tree;
  RoutingTopology topology;
};

Relabelled MakeRelabelled(ParentSelection selection) {
  Rng rng(41);
  StatusOr<RadioGraph> graph =
      ConnectedDeployment(150, 200.0, 200.0, 40.0, &rng);
  WSNQ_CHECK(graph.ok());
  StatusOr<SpanningTree> tree =
      BuildRoutingTree(graph.value(), 17, selection, /*seed=*/3);
  WSNQ_CHECK(tree.ok());
  RoutingTopology topology = RelabelToPostOrder(graph.value(), tree.value());
  return {std::move(graph).value(), std::move(tree).value(),
          std::move(topology)};
}

constexpr ParentSelection kAllSelections[] = {
    ParentSelection::kNearest, ParentSelection::kDegreeBalanced,
    ParentSelection::kRandom};

TEST(RelabelTest, PostOrderIsTheIdentity) {
  for (ParentSelection selection : kAllSelections) {
    const Relabelled r = MakeRelabelled(selection);
    const SpanningTree& tree = r.topology.tree;
    ASSERT_EQ(tree.size(), 150);
    for (int i = 0; i < tree.size(); ++i) {
      EXPECT_EQ(tree.post_order[static_cast<size_t>(i)], i);
    }
    EXPECT_EQ(tree.root, tree.size() - 1);
    EXPECT_EQ(tree.pre_order.front(), tree.root);
  }
}

TEST(RelabelTest, SubtreesAreContiguousIdRanges) {
  for (ParentSelection selection : kAllSelections) {
    const Relabelled r = MakeRelabelled(selection);
    const SpanningTree& tree = r.topology.tree;
    const int n = tree.size();
    // size[v] by one ascending pass: children precede their parent.
    std::vector<int> size(static_cast<size_t>(n), 1);
    for (int v = 0; v < n; ++v) {
      for (int child : tree.children[static_cast<size_t>(v)]) {
        EXPECT_LT(child, v);
        size[static_cast<size_t>(v)] += size[static_cast<size_t>(child)];
      }
    }
    EXPECT_EQ(size[static_cast<size_t>(tree.root)], n);
    // Every u in [v - size(v) + 1, v] has v on its root path, and nothing
    // outside the range does.
    for (int v = 0; v < n; ++v) {
      const int lo = v - size[static_cast<size_t>(v)] + 1;
      ASSERT_GE(lo, 0);
      EXPECT_EQ(tree.subtree_begin[static_cast<size_t>(v)], lo);
      for (int u = 0; u < n; ++u) {
        bool below = false;
        for (int w = u; w >= 0; w = tree.parent[static_cast<size_t>(w)]) {
          if (w == v) {
            below = true;
            break;
          }
        }
        EXPECT_EQ(below, u >= lo && u <= v) << "v=" << v << " u=" << u;
      }
    }
  }
}

TEST(RelabelTest, ExternalIdIsAPermutationAndRoundTrips) {
  const Relabelled r = MakeRelabelled(ParentSelection::kNearest);
  const RadioGraph& graph = *r.topology.graph;
  const int n = graph.size();
  std::vector<char> seen(static_cast<size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    const int e = graph.external_id(v);
    ASSERT_GE(e, 0);
    ASSERT_LT(e, n);
    EXPECT_EQ(seen[static_cast<size_t>(e)], 0) << "e=" << e;
    seen[static_cast<size_t>(e)] = 1;
    EXPECT_EQ(graph.internal_id(e), v);
    // Vertex v is the input's vertex e: same position, same tree edge.
    EXPECT_EQ(graph.point(v).x, r.graph.point(e).x);
    EXPECT_EQ(graph.point(v).y, r.graph.point(e).y);
    const int parent = r.topology.tree.parent[static_cast<size_t>(v)];
    EXPECT_EQ(parent < 0 ? -1 : graph.external_id(parent),
              r.tree.parent[static_cast<size_t>(e)]);
  }
  // An unpermuted graph is its own external numbering.
  for (int v = 0; v < n; ++v) {
    EXPECT_EQ(r.graph.external_id(v), v);
    EXPECT_EQ(r.graph.internal_id(v), v);
  }
  // Permuting back by the external ids restores the input graph.
  std::vector<int> back(static_cast<size_t>(n));
  for (int e = 0; e < n; ++e) {
    back[static_cast<size_t>(e)] = graph.internal_id(e);
  }
  const RadioGraph restored = graph.Permuted(back);
  for (int v = 0; v < n; ++v) {
    EXPECT_EQ(restored.external_id(v), v);
    EXPECT_EQ(restored.point(v).x, r.graph.point(v).x);
    const auto got = restored.neighbors(v);
    const auto want = r.graph.neighbors(v);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "v=" << v;
  }
}

TEST(RelabelTest, NeighbourListsAscendByExternalId) {
  const Relabelled r = MakeRelabelled(ParentSelection::kDegreeBalanced);
  const RadioGraph& graph = *r.topology.graph;
  for (int v = 0; v < graph.size(); ++v) {
    const auto mine = graph.neighbors(v);
    const auto before = r.graph.neighbors(graph.external_id(v));
    ASSERT_EQ(mine.size(), before.size()) << "v=" << v;
    for (size_t i = 0; i < mine.size(); ++i) {
      // Same neighbours, in the input's order.
      EXPECT_EQ(graph.external_id(mine[i]), before[i]) << "v=" << v;
      if (i > 0) {
        EXPECT_LT(graph.external_id(mine[i - 1]),
                  graph.external_id(mine[i]));
      }
    }
  }
}

TEST(NetworkTest, AccountingOnLine) {
  // 0 -- 1 -- 2 rooted at 0.
  RadioGraph graph(LinePoints(3, 10.0), 10.5);
  auto net_or = Network::Create(graph, 0, EnergyModel{}, Packetizer{});
  ASSERT_TRUE(net_or.ok());
  Network net = std::move(net_or).value();
  net.BeginRound();
  net.SendToParent(2, 100);
  const auto msg = Packetizer{}.Packetize(100);
  const EnergyModel model;
  EXPECT_NEAR(net.round_energy(2), model.SendCost(msg.total_bits, 10.5),
              1e-15);
  EXPECT_NEAR(net.round_energy(1), model.RecvCost(msg.total_bits), 1e-15);
  EXPECT_EQ(net.round_energy(0), 0.0);
  EXPECT_EQ(net.round_packets(), 1);

  net.BroadcastToChildren(0, 40);
  const auto bmsg = Packetizer{}.Packetize(40);
  EXPECT_NEAR(net.round_energy(0), model.SendCost(bmsg.total_bits, 10.5),
              1e-15);
  EXPECT_EQ(net.round_packets(), 2);
}

TEST(NetworkTest, FloodReachesEveryone) {
  RadioGraph graph(LinePoints(6, 10.0), 10.5);
  auto net_or = Network::Create(graph, 0, EnergyModel{}, Packetizer{});
  ASSERT_TRUE(net_or.ok());
  Network net = std::move(net_or).value();
  net.BeginRound();
  net.FloodFromRoot(16);
  // Nodes 0..4 transmit (node 5 is a leaf); nodes 1..5 receive.
  EXPECT_EQ(net.round_packets(), 5);
  for (int v = 1; v <= 5; ++v) EXPECT_GT(net.round_energy(v), 0.0);
  const EnergyModel model;
  const auto msg = Packetizer{}.Packetize(16);
  // The leaf only receives.
  EXPECT_NEAR(net.round_energy(5), model.RecvCost(msg.total_bits), 1e-15);
}

TEST(NetworkTest, ResetAccountingClears) {
  RadioGraph graph(LinePoints(3, 10.0), 10.5);
  auto net_or = Network::Create(graph, 0, EnergyModel{}, Packetizer{});
  ASSERT_TRUE(net_or.ok());
  Network net = std::move(net_or).value();
  net.BeginRound();
  net.SendToParent(2, 100);
  net.CountValues(3);
  EXPECT_GT(net.total_energy(2), 0.0);
  EXPECT_EQ(net.total_values(), 3);
  net.ResetAccounting();
  EXPECT_EQ(net.total_energy(2), 0.0);
  EXPECT_EQ(net.total_packets(), 0);
  EXPECT_EQ(net.total_values(), 0);
  EXPECT_EQ(net.MaxTotalEnergyOverSensors(), 0.0);
}

TEST(NetworkTest, RootSendToParentIsNoop) {
  RadioGraph graph(LinePoints(3, 10.0), 10.5);
  auto net_or = Network::Create(graph, 0, EnergyModel{}, Packetizer{});
  ASSERT_TRUE(net_or.ok());
  Network net = std::move(net_or).value();
  net.BeginRound();
  net.SendToParent(0, 100);
  EXPECT_EQ(net.round_packets(), 0);
  EXPECT_EQ(net.round_energy(0), 0.0);
}

TEST(NetworkTest, MaxRoundEnergyExcludesRoot) {
  RadioGraph graph(LinePoints(3, 10.0), 10.5);
  auto net_or = Network::Create(graph, 1, EnergyModel{}, Packetizer{});
  ASSERT_TRUE(net_or.ok());
  Network net = std::move(net_or).value();
  net.BeginRound();
  net.BroadcastToChildren(1, 5000);  // root 1 transmits a lot
  const double max_sensor = net.MaxRoundEnergyOverSensors();
  EXPECT_LT(max_sensor, net.round_energy(1));
}

// --- One flood path ---------------------------------------------------------

/// Records every SendObserver callback in order.
class RecordingObserver : public SendObserver {
 public:
  void OnSend(const SendInfo& info) override { sends.push_back(info); }
  std::vector<SendInfo> sends;
};

enum class FloodSetup { kBare, kObserver, kTraceBuffer, kCrashedInterior };

/// Everything one dissemination leaves behind, for exact comparison.
struct Dissemination {
  std::vector<uint64_t> energy_bits;  ///< round_energy(v), as bit patterns
  int64_t packets = 0;
  std::vector<SendObserver::SendInfo> sends;
  std::vector<trace::Event> events;
  int crashed = -1;  ///< internal id of the crashed vertex, if any
};

/// The first non-root vertex in pre order that has a grandchild: crashing
/// it silences a broadcast and starves a whole subtree.
int InteriorVertex(const SpanningTree& tree) {
  for (int v : tree.pre_order) {
    if (v == tree.root) continue;
    for (int child : tree.children[static_cast<size_t>(v)]) {
      if (!tree.children[static_cast<size_t>(child)].empty()) return v;
    }
  }
  return -1;
}

/// One round that disseminates `bits` from the root over the relabelled
/// 150-vertex deployment, either as FloodFromRoot or as the equivalent
/// loop of BroadcastToChildren over the tree's pre order.
Dissemination Disseminate(FloodSetup setup, bool flood, int64_t bits) {
  const Relabelled r = MakeRelabelled(ParentSelection::kNearest);
  Network net(r.topology.graph, r.topology.tree, EnergyModel{}, Packetizer{});
  Dissemination out;
  RecordingObserver observer;
  if (setup == FloodSetup::kObserver) net.set_send_observer(&observer);
  if (setup == FloodSetup::kCrashedInterior) {
    out.crashed = InteriorVertex(net.tree());
    WSNQ_CHECK_GE(out.crashed, 0);
    FaultConfig config;
    config.crash_round = 0;
    config.crash_len = 0;  // never recovers
    config.repair = false;  // keep the tree, so the crash silences a subtree
    net.set_transport_policy(std::make_unique<FaultPlan>(
        config, /*seed=*/7, /*run=*/0, net.num_vertices(),
        net.external_id(net.root()),
        std::make_unique<ScriptedFaultOracle>(std::vector<int64_t>{}),
        std::vector<int>{net.external_id(out.crashed)}));
  }
  trace::TraceBuffer buffer(0);
  {
    trace::RunScope scope(setup == FloodSetup::kTraceBuffer ? &buffer
                                                            : nullptr);
    net.BeginRound();
    if (flood) {
      net.FloodFromRoot(bits);
    } else {
      for (int v : net.tree().pre_order) net.BroadcastToChildren(v, bits);
    }
  }
  for (int v = 0; v < net.num_vertices(); ++v) {
    out.energy_bits.push_back(std::bit_cast<uint64_t>(net.round_energy(v)));
  }
  out.packets = net.round_packets();
  out.sends = observer.sends;
  out.events = buffer.events();
  return out;
}

void ExpectSameSends(const std::vector<SendObserver::SendInfo>& got,
                     const std::vector<SendObserver::SendInfo>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "send " << i);
    EXPECT_EQ(got[i].kind, want[i].kind);
    EXPECT_EQ(got[i].sender, want[i].sender);
    EXPECT_EQ(got[i].payload_bits, want[i].payload_bits);
    EXPECT_EQ(got[i].wire_bits, want[i].wire_bits);
    EXPECT_EQ(got[i].packets, want[i].packets);
    EXPECT_EQ(got[i].delivered, want[i].delivered);
    EXPECT_EQ(got[i].data_frames, want[i].data_frames);
    EXPECT_EQ(got[i].ack_frames, want[i].ack_frames);
    EXPECT_EQ(got[i].ticks, want[i].ticks);
  }
}

/// Same events in the same order; ticks are compared as offsets from the
/// first event, since the flood's span shifts every tick by one.
void ExpectSameEvents(const std::vector<trace::Event>& got,
                      const std::vector<trace::Event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "event " << i);
    EXPECT_EQ(got[i].kind, want[i].kind);
    EXPECT_STREQ(got[i].phase, want[i].phase);
    EXPECT_STREQ(got[i].name, want[i].name);
    EXPECT_STREQ(got[i].proto, want[i].proto);
    EXPECT_EQ(got[i].run, want[i].run);
    EXPECT_EQ(got[i].round, want[i].round);
    EXPECT_EQ(got[i].node, want[i].node);
    EXPECT_EQ(got[i].tick - got.front().tick, want[i].tick - want.front().tick);
    ASSERT_EQ(got[i].num_args, want[i].num_args);
    for (int a = 0; a < got[i].num_args; ++a) {
      EXPECT_STREQ(got[i].args[a].key, want[i].args[a].key);
      EXPECT_EQ(got[i].args[a].value, want[i].args[a].value);
    }
  }
}

TEST(NetworkTest, FloodEqualsBroadcastLoopOverPreOrder) {
  constexpr FloodSetup kSetups[] = {FloodSetup::kBare, FloodSetup::kObserver,
                                    FloodSetup::kTraceBuffer,
                                    FloodSetup::kCrashedInterior};
  // 3000 bits fragment into several packets, so packet counts and the
  // per-fragment header cost both show in the comparison.
  constexpr int64_t kBits = 3000;
  ASSERT_GT(Packetizer{}.Packetize(kBits).packets, 1);
  for (FloodSetup setup : kSetups) {
    SCOPED_TRACE(testing::Message() << "setup " << static_cast<int>(setup));
    const Dissemination flood = Disseminate(setup, /*flood=*/true, kBits);
    const Dissemination loop = Disseminate(setup, /*flood=*/false, kBits);

    EXPECT_EQ(flood.energy_bits, loop.energy_bits);
    EXPECT_EQ(flood.packets, loop.packets);
    EXPECT_GT(flood.packets, 0);
    ExpectSameSends(flood.sends, loop.sends);
    EXPECT_EQ(flood.sends.empty(), setup != FloodSetup::kObserver);

    if (setup == FloodSetup::kTraceBuffer) {
      // The flood wraps the very same broadcast events in one span.
      ASSERT_GE(flood.events.size(), 2u);
      EXPECT_EQ(flood.events.front().kind, trace::Event::Kind::kBegin);
      EXPECT_STREQ(flood.events.front().name, "flood");
      EXPECT_EQ(flood.events.back().kind, trace::Event::Kind::kEnd);
      EXPECT_STREQ(flood.events.back().name, "flood");
      ASSERT_FALSE(loop.events.empty());
      ExpectSameEvents(std::vector<trace::Event>(flood.events.begin() + 1,
                                                 flood.events.end() - 1),
                       loop.events);
    } else {
      EXPECT_TRUE(flood.events.empty());
      EXPECT_TRUE(loop.events.empty());
    }

    if (setup == FloodSetup::kCrashedInterior) {
      // The crash really gated the flood: the victim neither sent nor
      // heard, so it paid nothing.
      EXPECT_EQ(flood.energy_bits[static_cast<size_t>(flood.crashed)], 0u);
      EXPECT_LT(flood.packets, Disseminate(FloodSetup::kBare, true, kBits)
                                   .packets);
    }
  }
}

}  // namespace
}  // namespace wsnq

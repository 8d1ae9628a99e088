// Slab-row convergecasts (algo/common.h, algo/hist_codec.h) against a
// brute-force per-subtree reference. Every row lives in its vertex's
// post-order slab and is never cleared between waves, so the checks cover
// what that layout could get wrong: each collection's and histogram's root
// row, and every vertex's uplink payload, on path, star, random geometric
// (in placement order and renumbered into post order) and churn-repaired
// trees (the last with post order != vertex ids), for
// ties at rank k, all-equal fields and k in {1, n}, serially and on
// subtree-parallel wave pools of 2 and 4 threads (a churned network's
// transport policy keeps it on the serial loop) — with one workspace
// reused across every wave. The protocols built on the slabs must stay
// exact on the same inputs, and a workspace's footprint must not ratchet
// up with rounds.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algo/common.h"
#include "algo/hist_codec.h"
#include "algo/lcll.h"
#include "algo/registry.h"
#include "algo/tag.h"
#include "fault/tree_repair.h"
#include "net/network.h"
#include "net/placement.h"
#include "net/radio_graph.h"
#include "net/spanning_tree.h"
#include "net/wave.h"
#include "util/rng.h"

namespace wsnq {
namespace {

constexpr int64_t kRangeMin = 0;
constexpr int64_t kRangeMax = 1000;

// --- Tree shapes ------------------------------------------------------------

/// A path of `n` vertices rooted at `root` (an end or the middle).
Network MakePath(int n, int root) {
  std::vector<Point2D> points;
  for (int i = 0; i < n; ++i) points.push_back({i * 10.0, 0.0});
  auto net = Network::Create(RadioGraph(std::move(points), 10.5), root,
                             EnergyModel{}, Packetizer{});
  return std::move(net).value();
}

/// The root at the centre of a circle of `sensors` one-hop children.
Network MakeStar(int sensors) {
  std::vector<Point2D> points = {{100.0, 100.0}};
  for (int i = 0; i < sensors; ++i) {
    const double angle = 2.0 * M_PI * i / sensors;
    points.push_back(
        {100.0 + 50.0 * std::cos(angle), 100.0 + 50.0 * std::sin(angle)});
  }
  auto net = Network::Create(RadioGraph(std::move(points), 60.0), /*root=*/0,
                             EnergyModel{}, Packetizer{});
  return std::move(net).value();
}

RadioGraph RandomGraph(int sensors, uint64_t seed) {
  Rng rng(seed);
  auto points = ConnectedPlacement(sensors + 1, 200.0, 200.0, 40.0, &rng);
  return RadioGraph(std::move(points).value(), 40.0);
}

/// A random geometric deployment in placement order (root 0).
Network MakeGeometric(int sensors, uint64_t seed) {
  auto net = Network::Create(RandomGraph(sensors, seed), /*root=*/0,
                             EnergyModel{}, Packetizer{});
  return std::move(net).value();
}

/// A random geometric deployment renumbered into post order, as scenarios
/// build it: every subtree is the id range [subtree_begin[v], v].
Network MakeRelabelled(int sensors, uint64_t seed) {
  const RadioGraph graph = RandomGraph(sensors, seed);
  auto tree = BuildShortestPathTree(graph, /*root=*/0);
  RoutingTopology topology = RelabelToPostOrder(graph, tree.value());
  return Network(topology.graph, std::move(topology.tree), EnergyModel{},
                 Packetizer{});
}

/// Every vertex whose external id is 3 mod 7 (never the root) is down.
bool Crashed(int external_id) { return external_id % 7 == 3; }

/// The transport of a churned network: crashed vertices neither send nor
/// receive, every other uplink is delivered. Not reliable(), as under
/// churn, so protocols and helpers know the population may be short.
class CrashPolicy : public TransportPolicy {
 public:
  void OnRoundStart(int64_t /*round*/, Network* /*net*/) override {}
  void OnReset() override {}
  bool reliable() const override { return false; }
  bool IsDown(int v) const override { return Crashed(v); }
  int64_t AckPayloadBits() const override { return 0; }
  UplinkOutcome Uplink(int /*src*/, int /*dst*/) override { return {}; }
};

/// MakeRelabelled, then its tree rebuilt by churn repair: repaired trees
/// list children by external id, so post order is no longer the identity.
/// With `crash`, the crashed vertices are detached from the repaired tree
/// and a CrashPolicy is installed.
Network MakeRepaired(int sensors, uint64_t seed, bool crash) {
  Network net = MakeRelabelled(sensors, seed);
  std::vector<char> alive(static_cast<size_t>(net.num_vertices()), 1);
  for (int v = 0; v < net.num_vertices(); ++v) {
    if (crash && !net.is_root(v) && Crashed(net.external_id(v))) {
      alive[static_cast<size_t>(v)] = 0;
    }
  }
  net.AdoptTree(RepairTree(net.graph(), net.root(), alive,
                           ParentSelection::kDegreeBalanced, seed));
  if (crash) net.set_transport_policy(std::make_unique<CrashPolicy>());
  return net;
}

struct Shape {
  std::string name;
  std::function<Network()> make;
  /// Sensors are detached: the protocols' population is short.
  bool crashed = false;
};

std::vector<Shape> Shapes() {
  return {
      {"path_end", [] { return MakePath(40, 0); }},
      {"path_middle", [] { return MakePath(41, 20); }},
      {"star", [] { return MakeStar(40); }},
      {"geometric", [] { return MakeGeometric(120, 5); }},
      {"relabelled", [] { return MakeRelabelled(120, 7); }},
      {"repaired", [] { return MakeRepaired(150, 9, /*crash=*/false); }},
      {"crashed", [] { return MakeRepaired(150, 9, /*crash=*/true); },
       /*crashed=*/true},
  };
}

// --- Inputs -----------------------------------------------------------------

enum class Field { kTies, kAllEqual, kWide };

std::vector<int64_t> MakeValues(const Network& net, Field field,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()));
  for (int64_t& value : values) {
    switch (field) {
      case Field::kTies:  // four values: every rank sits in a run of ties
        value = 100 * rng.UniformInt(1, 4);
        break;
      case Field::kAllEqual:
        value = 500;
        break;
      case Field::kWide:
        value = rng.UniformInt(kRangeMin, kRangeMax);
        break;
    }
  }
  // The root measures nothing; a stray value there must never show up.
  values[static_cast<size_t>(net.root())] = -12345;
  return values;
}

const char* FieldName(Field field) {
  switch (field) {
    case Field::kTies:
      return "ties";
    case Field::kAllEqual:
      return "all_equal";
    case Field::kWide:
      return "wide";
  }
  return "?";
}

// --- Brute-force reference --------------------------------------------------

/// The sensor values of every vertex's subtree, found by walking each
/// attached sensor's parent chain up to the root; empty for detached
/// vertices. Independent of post order, children lists and slabs.
std::vector<std::vector<int64_t>> SubtreeValues(
    const Network& net, const std::vector<int64_t>& values) {
  const std::vector<int>& parent = net.tree().parent;
  std::vector<std::vector<int64_t>> sub(
      static_cast<size_t>(net.num_vertices()));
  for (int u = 0; u < net.num_vertices(); ++u) {
    if (net.is_root(u)) continue;
    std::vector<int> chain;
    int w = u;
    while (w >= 0 && !net.is_root(w)) {
      chain.push_back(w);
      w = parent[static_cast<size_t>(w)];
    }
    if (w < 0) continue;  // detached: never reaches the root
    chain.push_back(w);
    for (int a : chain) {
      sub[static_cast<size_t>(a)].push_back(values[static_cast<size_t>(u)]);
    }
  }
  return sub;
}

bool Attached(const Network& net, int v) {
  const SpanningTree& tree = net.tree();
  return std::find(tree.post_order.begin(), tree.post_order.end(), v) !=
         tree.post_order.end();
}

/// `sorted` cut to its first `limit` entries plus ties of the last one.
std::vector<int64_t> WithTies(std::vector<int64_t> sorted, int64_t limit) {
  if (limit <= 0 || static_cast<int64_t>(sorted.size()) <= limit) {
    return sorted;
  }
  const int64_t cutoff = sorted[static_cast<size_t>(limit - 1)];
  size_t keep = static_cast<size_t>(limit);
  while (keep < sorted.size() && sorted[keep] == cutoff) ++keep;
  sorted.resize(keep);
  return sorted;
}

/// Records the payload of every uplink; a vertex sends at most once a wave.
class UplinkRecorder : public SendObserver {
 public:
  void OnSend(const SendInfo& info) override {
    if (info.kind != SendKind::kUplink) return;
    EXPECT_EQ(bits_.count(info.sender), 0u) << "vertex sent twice";
    bits_[info.sender] = info.payload_bits;
  }
  /// Payload of `v`'s uplink this wave, -1 when it stayed silent.
  int64_t bits(int v) const {
    const auto it = bits_.find(v);
    return it == bits_.end() ? -1 : it->second;
  }
  void Clear() { bits_.clear(); }

 private:
  std::map<int, int64_t> bits_;
};

/// Checks every vertex's payload against `expect_bits(v)` (-1 = silent).
void ExpectPayloads(const Network& net, const UplinkRecorder& recorder,
                    const std::function<int64_t(int)>& expect_bits,
                    const std::string& context) {
  for (int v = 0; v < net.num_vertices(); ++v) {
    if (net.is_root(v)) continue;
    const int64_t expect = Attached(net, v) ? expect_bits(v) : -1;
    EXPECT_EQ(recorder.bits(v), expect) << context << " vertex " << v;
  }
}

// --- The waves --------------------------------------------------------------

/// Runs every slab-row convergecast over one shape and field, each wave
/// with several parameter sets, all through one workspace, and checks them
/// against the reference.
void CheckAllWaves(Network* net, const std::vector<int64_t>& values,
                   const std::string& context) {
  const WireFormat wire;
  const auto sub = SubtreeValues(*net, values);
  const auto root_values = sub[static_cast<size_t>(net->root())];
  const int64_t sensors = static_cast<int64_t>(root_values.size());
  UplinkRecorder recorder;
  net->set_send_observer(&recorder);
  WaveWorkspace ws;

  const auto value_bits = [&](const std::vector<int64_t>& row) {
    return row.empty() ? int64_t{-1}
                       : static_cast<int64_t>(row.size()) * wire.value_bits;
  };

  for (const int64_t k : {int64_t{1}, std::max<int64_t>(1, sensors / 2),
                          std::max<int64_t>(1, sensors), sensors + 3}) {
    const std::string at = context + " collect k=" + std::to_string(k);
    const auto expect_row = [&](int v) {
      std::vector<int64_t> row = sub[static_cast<size_t>(v)];
      std::sort(row.begin(), row.end());
      return WithTies(std::move(row), k);
    };
    recorder.Clear();
    EXPECT_EQ(CollectKSmallest(net, values, k, wire, &ws),
              expect_row(net->root()))
        << at;
    ExpectPayloads(*net, recorder,
                   [&](int v) { return value_bits(expect_row(v)); }, at);
  }

  const std::pair<int64_t, int64_t> ranges[] = {
      {kRangeMin, kRangeMax}, {150, 350}, {300, 300}, {1001, 2000}};
  for (const auto& [lo, hi] : ranges) {
    const std::string at = context + " range [" + std::to_string(lo) + "," +
                           std::to_string(hi) + "]";
    const auto expect_row = [&](int v) {
      std::vector<int64_t> row;
      for (int64_t x : sub[static_cast<size_t>(v)]) {
        if (x >= lo && x <= hi) row.push_back(x);
      }
      std::sort(row.begin(), row.end());
      return row;
    };
    recorder.Clear();
    EXPECT_EQ(RangeValuesConvergecast(net, values, lo, hi, wire, &ws),
              expect_row(net->root()))
        << at;
    ExpectPayloads(*net, recorder,
                   [&](int v) { return value_bits(expect_row(v)); }, at);

    for (const bool largest : {false, true}) {
      for (const int64_t f : {int64_t{1}, int64_t{3}, sensors + 1}) {
        const std::string top_at = at + (largest ? " largest" : " smallest") +
                                   " f=" + std::to_string(f);
        const auto expect_top = [&](int v) {
          std::vector<int64_t> row = expect_row(v);
          if (largest) std::reverse(row.begin(), row.end());
          return WithTies(std::move(row), f);
        };
        recorder.Clear();
        std::vector<int64_t> root = expect_top(net->root());
        std::sort(root.begin(), root.end());
        EXPECT_EQ(TopFConvergecast(net, values, lo, hi, f, largest, wire, &ws),
                  root)
            << top_at;
        ExpectPayloads(*net, recorder,
                       [&](int v) { return value_bits(expect_top(v)); },
                       top_at);
      }
    }
  }

  const BucketLayout layouts[] = {BucketLayout(kRangeMin, kRangeMax + 1, 1),
                                  BucketLayout(kRangeMin, kRangeMax + 1, 4),
                                  BucketLayout(kRangeMin, kRangeMax + 1, 64),
                                  BucketLayout(150, 350, 8)};
  for (const BucketLayout& layout : layouts) {
    const std::string at = context + " histogram [" +
                           std::to_string(layout.lb()) + "," +
                           std::to_string(layout.ub()) + ") b=" +
                           std::to_string(layout.num_buckets());
    const auto expect_counts = [&](int v) {
      std::map<int, int64_t> counts;
      for (int64_t x : sub[static_cast<size_t>(v)]) {
        if (layout.Contains(x)) ++counts[layout.BucketOf(x)];
      }
      return counts;
    };
    recorder.Clear();
    const SparseHistogram root =
        HistogramConvergecast(net, values, layout, wire, &ws);
    const std::map<int, int64_t> expect_root = expect_counts(net->root());
    for (int b = 0; b < layout.num_buckets(); ++b) {
      const auto it = expect_root.find(b);
      EXPECT_EQ(root.count(b), it == expect_root.end() ? 0 : it->second)
          << at << " bucket " << b;
    }
    ExpectPayloads(
        *net, recorder,
        [&](int v) {
          const std::map<int, int64_t> counts = expect_counts(v);
          return counts.empty()
                     ? int64_t{-1}
                     : HistogramBits(static_cast<int64_t>(counts.size()),
                                     layout.num_buckets(), wire);
        },
        at);
  }
  net->set_send_observer(nullptr);
}

TEST(SlabRowsTest, EveryWaveMatchesPerSubtreeReference) {
  for (const Shape& shape : Shapes()) {
    for (const Field field : {Field::kTies, Field::kAllEqual, Field::kWide}) {
      for (const int threads : {0, 2, 4}) {
        Network net = shape.make();
        std::unique_ptr<WaveExecutor> executor;
        if (threads > 0) {
          executor = std::make_unique<WaveExecutor>(threads,
                                                    /*target_parts=*/8);
          net.set_wave_executor(executor.get());
        }
        const std::string context = shape.name + " " + FieldName(field) +
                                    " threads=" + std::to_string(threads);
        CheckAllWaves(&net, MakeValues(net, field, 17), context);
      }
    }
  }
}

TEST(SlabRowsTest, SubtreeBeginBoundsEverySubtreeRange) {
  // Each subtree is post_order[subtree_begin[v] .. position of v], and a
  // child's range sits inside its parent's, the first child's starting
  // where the parent's does.
  for (const Shape& shape : Shapes()) {
    const Network net = shape.make();
    const SpanningTree& tree = net.tree();
    std::vector<int> position(static_cast<size_t>(tree.size()), -1);
    for (size_t i = 0; i < tree.post_order.size(); ++i) {
      position[static_cast<size_t>(tree.post_order[i])] = static_cast<int>(i);
    }
    for (int v = 0; v < tree.size(); ++v) {
      const int begin = tree.subtree_begin[static_cast<size_t>(v)];
      if (position[static_cast<size_t>(v)] < 0) {
        EXPECT_EQ(begin, -1) << shape.name << " detached " << v;
        continue;
      }
      const auto kids = tree.children[static_cast<size_t>(v)];
      int expect = begin;
      for (int child : kids) {
        EXPECT_EQ(tree.subtree_begin[static_cast<size_t>(child)], expect)
            << shape.name << " child " << child << " of " << v;
        expect = position[static_cast<size_t>(child)] + 1;
      }
      EXPECT_EQ(position[static_cast<size_t>(v)], expect)
          << shape.name << " vertex " << v;
    }
  }
}

TEST(SlabRowsTest, ExactProtocolsStayExactOnEveryShape) {
  const AlgorithmKind kinds[] = {
      AlgorithmKind::kTag,   AlgorithmKind::kPos,   AlgorithmKind::kHbc,
      AlgorithmKind::kHbcNtb, AlgorithmKind::kIq,   AlgorithmKind::kLcllH,
      AlgorithmKind::kLcllS, AlgorithmKind::kSwitching};
  constexpr int kRounds = 12;
  for (const Shape& shape : Shapes()) {
    if (shape.crashed) continue;  // exactness assumes the whole population
    for (const Field field : {Field::kTies, Field::kAllEqual, Field::kWide}) {
      Network probe = shape.make();
      std::vector<std::vector<int64_t>> rounds;
      for (int r = 0; r < kRounds; ++r) {
        rounds.push_back(MakeValues(probe, field, 100 + r));
      }
      const int64_t sensors = static_cast<int64_t>(
          SubtreeValues(probe, rounds[0])[static_cast<size_t>(probe.root())]
              .size());
      for (const int64_t k : {int64_t{1}, (sensors + 1) / 2, sensors}) {
        for (const AlgorithmKind kind : kinds) {
          Network net = shape.make();
          WaveExecutor executor(/*threads=*/2, /*target_parts=*/8);
          net.set_wave_executor(&executor);
          auto protocol =
              MakeProtocol(kind, k, kRangeMin, kRangeMax, WireFormat{});
          for (int r = 0; r < kRounds; ++r) {
            net.BeginRound();
            protocol->RunRound(&net, rounds[static_cast<size_t>(r)], r);
            std::vector<int64_t> live =
                SubtreeValues(net, rounds[static_cast<size_t>(r)])
                    [static_cast<size_t>(net.root())];
            std::sort(live.begin(), live.end());
            ASSERT_EQ(static_cast<int64_t>(live.size()), sensors);
            EXPECT_EQ(protocol->quantile(), live[static_cast<size_t>(k - 1)])
                << shape.name << " " << FieldName(field) << " "
                << protocol->name() << " k=" << k << " round " << r;
          }
        }
      }
    }
  }
}

// --- Footprint ----------------------------------------------------------------

/// Value rows of a slowly drifting field: every sensor random-walks by at
/// most 40 a round inside the universe, so windows escape now and then.
std::vector<std::vector<int64_t>> DriftingField(const Network& net,
                                                int rounds) {
  Rng rng(23);
  std::vector<std::vector<int64_t>> rows;
  std::vector<int64_t> values = MakeValues(net, Field::kWide, 29);
  for (int r = 0; r < rounds; ++r) {
    for (int64_t& value : values) {
      value = std::clamp<int64_t>(value + rng.UniformInt(-40, 40), kRangeMin,
                                  kRangeMax);
    }
    rows.push_back(values);
  }
  return rows;
}

/// Heap bytes a protocol's workspace may hold per vertex: a few O(n)
/// arenas, whatever the round count.
constexpr size_t kMaxBytesPerVertex = 128;

template <typename Protocol>
void ExpectNoRatchet(Protocol* protocol, const std::string& name) {
  Network net = MakeRepaired(400, 31, /*crash=*/false);
  const auto rows = DriftingField(net, 60);
  size_t after_5 = 0;
  for (int r = 0; r < 60; ++r) {
    net.BeginRound();
    protocol->RunRound(&net, rows[static_cast<size_t>(r)], r);
    if (r == 4) after_5 = protocol->workspace().reserved_bytes();
  }
  const size_t after_60 = protocol->workspace().reserved_bytes();
  EXPECT_GT(after_5, 0u) << name;
  EXPECT_EQ(after_5, after_60) << name;
  EXPECT_LE(after_60,
            kMaxBytesPerVertex * static_cast<size_t>(net.num_vertices()))
      << name;
}

TEST(SlabRowsTest, WorkspaceFootprintDoesNotRatchet) {
  const int64_t k = 200;
  TagProtocol tag(k, WireFormat{});
  ExpectNoRatchet(&tag, "TAG");
  LcllProtocol lcll(k, kRangeMin, kRangeMax, WireFormat{},
                    LcllProtocol::Options{});
  ExpectNoRatchet(&lcll, "LCLL-H");
}

}  // namespace
}  // namespace wsnq

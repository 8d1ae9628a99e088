// Shared helpers for protocol-level tests: deterministic small scenarios,
// a scripted value feed whose measurements the test controls exactly, and
// a bit-exact comparison of two runs' results.

#ifndef WSNQ_TESTS_TEST_SCENARIO_H_
#define WSNQ_TESTS_TEST_SCENARIO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "net/network.h"
#include "net/placement.h"
#include "net/radio_graph.h"
#include "util/rng.h"

namespace wsnq {
namespace testing_support {

/// Bit-exact comparison of two runs' results: every SimulationResult
/// field, the per-round trail, and every metric row.
inline void ExpectResultsIdentical(const SimulationResult& a,
                                   const SimulationResult& b,
                                   const std::string& context) {
  const auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  EXPECT_TRUE(same_bits(a.mean_max_round_energy_mj,
                        b.mean_max_round_energy_mj))
      << context;
  EXPECT_TRUE(same_bits(a.lifetime_rounds, b.lifetime_rounds)) << context;
  EXPECT_TRUE(same_bits(a.mean_packets, b.mean_packets)) << context;
  EXPECT_TRUE(same_bits(a.mean_values, b.mean_values)) << context;
  EXPECT_TRUE(same_bits(a.mean_refinements, b.mean_refinements)) << context;
  EXPECT_TRUE(same_bits(a.mean_rank_error, b.mean_rank_error)) << context;
  EXPECT_EQ(a.errors, b.errors) << context;
  EXPECT_EQ(a.max_rank_error, b.max_rank_error) << context;
  EXPECT_EQ(a.rounds, b.rounds) << context;

  ASSERT_EQ(a.trail.size(), b.trail.size()) << context;
  for (size_t i = 0; i < a.trail.size(); ++i) {
    const RoundRecord& ra = a.trail[i];
    const RoundRecord& rb = b.trail[i];
    const std::string at = context + " round " + std::to_string(i);
    EXPECT_EQ(ra.quantile, rb.quantile) << at;
    EXPECT_TRUE(same_bits(ra.max_round_energy_mj, rb.max_round_energy_mj))
        << at;
    EXPECT_EQ(ra.packets, rb.packets) << at;
    EXPECT_EQ(ra.values, rb.values) << at;
    EXPECT_EQ(ra.refinements, rb.refinements) << at;
    EXPECT_EQ(ra.correct, rb.correct) << at;
    EXPECT_EQ(ra.rank_error, rb.rank_error) << at;
  }

  const std::vector<MetricsRegistry::Row> rows_a = a.metrics.Rows();
  const std::vector<MetricsRegistry::Row> rows_b = b.metrics.Rows();
  ASSERT_EQ(rows_a.size(), rows_b.size()) << context;
  EXPECT_FALSE(rows_a.empty()) << context;
  for (size_t i = 0; i < rows_a.size(); ++i) {
    EXPECT_EQ(rows_a[i].metric, rows_b[i].metric) << context;
    EXPECT_TRUE(same_bits(rows_a[i].value, rows_b[i].value))
        << context << " metric " << rows_a[i].metric;
  }
}

/// A line network 0 - 1 - ... - (n-1) rooted at `root`.
inline Network MakeLineNetwork(int n, int root = 0) {
  std::vector<Point2D> points;
  for (int i = 0; i < n; ++i) points.push_back({i * 10.0, 0.0});
  auto net = Network::Create(RadioGraph(std::move(points), 10.5), root,
                             EnergyModel{}, Packetizer{});
  return std::move(net).value();
}

/// A random connected 2-D network.
inline Network MakeRandomNetwork(int sensors, uint64_t seed,
                                 double rho = 60.0) {
  Rng rng(seed);
  auto placement = ConnectedPlacement(sensors + 1, 200.0, 200.0, rho, &rng);
  auto net = Network::Create(RadioGraph(std::move(placement).value(), rho),
                             /*root=*/0, EnergyModel{}, Packetizer{});
  return std::move(net).value();
}

/// Per-vertex measurement script: values[round][vertex]; the root's column
/// is ignored by protocols.
using ValueScript = std::vector<std::vector<int64_t>>;

}  // namespace testing_support
}  // namespace wsnq

#endif  // WSNQ_TESTS_TEST_SCENARIO_H_

// Golden-aggregate regression test: freezes the per-protocol aggregates of
// the §5.1-default configuration for all six paper protocols, so silent
// numeric drift from future refactors (scenario seeding, energy model,
// protocol logic, aggregation order) fails tier-1 instead of only showing
// up when the EXPERIMENTS.md sweeps are rerun.
//
// The deployment and workload parameters are the §5.1 defaults (256
// sensors in 200 m x 200 m, rho = 35 m, period 125, 5% noise, median
// query); runs x rounds are reduced to 4 x 60 to keep the suite fast —
// drift detection does not depend on the horizon.
//
// Goldens are exact: values are compared with EXPECT_EQ on doubles and
// stored as hex float literals, so every bit of drift is a failure. They
// are tied to the toolchain's libm (sin/exp/log differ across C library
// versions); if a platform change — not a code change — moves them,
// regenerate instead of chasing phantom bugs:
//
//   WSNQ_UPDATE_GOLDEN=1 ./build/tests/golden_aggregate_test
//
// prints a replacement kGolden table to paste into this file (the test is
// skipped in that mode so regeneration never masquerades as a pass).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/registry.h"
#include "core/config.h"
#include "core/experiment.h"

namespace wsnq {
namespace {

struct GoldenRow {
  const char* label;
  double energy_mean;
  double energy_min;
  double energy_max;
  double lifetime_mean;
  double packets_mean;
  double values_mean;
  double refinements_mean;
  double rank_error_mean;
  int64_t max_rank_error;
  int64_t errors;
};

// Regenerate with WSNQ_UPDATE_GOLDEN=1 (see file comment).
constexpr GoldenRow kGolden[] = {
    {"TAG",
     0x1.e772d3ad2b862p-3, 0x1.6a6008cf4c427p-3,
     0x1.409fa432b2238p-2, 0x1.07054eef867bp+7,
     0x1.0202192e29f7ap+8, 0x1.a56p+9,
     0x0p+0, 0x0p+0,
     0, 0},
    {"POS",
     0x1.b4da464e3d62p-3, 0x1.94b094b220bf8p-3,
     0x1.da83fb867943fp-3, 0x1.291a67be8274bp+7,
     0x1.4bdc53ef368ebp+8, 0x1.94e29f79b4758p+6,
     0x1.f04325c53ef36p+0, 0x0p+0,
     0, 0},
    {"HBC",
     0x1.9a80c150efcb2p-3, 0x1.7c35399320c81p-3,
     0x1.bccdd188d0fb9p-3, 0x1.3bc472b9ed4a3p+7,
     0x1.4e3ef368eb044p+8, 0x1.4fde6d1d60864p+4,
     0x1.ee29f79b47582p+0, 0x0p+0,
     0, 0},
    {"IQ",
     0x1.b73a72debf24fp-4, 0x1.84dd0e19820cdp-4,
     0x1.de541621792b4p-4, 0x1.2a55254101c84p+8,
     0x1.2f90c9714fbcep+7, 0x1.767582192e29fp+6,
     0x1.a3ac10c9714fcp-3, 0x0p+0,
     0, 0},
    {"LCLL-H",
     0x1.f173d95f9e709p-3, 0x1.9184126c0c443p-3,
     0x1.2991a53b24ae7p-2, 0x1.018e18a0747e4p+7,
     0x1.0c26d1d60864cp+8, 0x1.e53ef368eb043p+2,
     0x1.4325c53ef368fp-1, 0x0p+0,
     0, 0},
    {"LCLL-S",
     0x1.81ae775b05f8cp-3, 0x1.39d54a9e4dea5p-3,
     0x1.d03f7ea5a049cp-3, 0x1.4dcecd51e2853p+7,
     0x1.480a7de6d1d61p+7, 0x1.f79b47582192ep-1,
     0x1.14fbcda3ac10dp-3, 0x0p+0,
     0, 0},
};

SimulationConfig GoldenConfig() {
  SimulationConfig config;  // §5.1 defaults: 256 sensors, rho=35, phi=0.5
  config.synthetic.period_rounds = 125;
  config.synthetic.noise_percent = 5;
  config.rounds = 60;
  config.threads = 1;  // determinism across thread counts has its own test
  return config;
}

constexpr int kGoldenRuns = 4;

void PrintReplacementTable(const std::vector<AlgorithmAggregate>& aggs) {
  std::printf("constexpr GoldenRow kGolden[] = {\n");
  for (const AlgorithmAggregate& agg : aggs) {
    std::printf(
        "    {\"%s\",\n"
        "     %a, %a,\n"
        "     %a, %a,\n"
        "     %a, %a,\n"
        "     %a, %a,\n"
        "     %lld, %lld},\n",
        agg.label.c_str(), agg.max_round_energy_mj.mean(),
        agg.max_round_energy_mj.min(), agg.max_round_energy_mj.max(),
        agg.lifetime_rounds.mean(), agg.packets.mean(), agg.values.mean(),
        agg.refinements.mean(), agg.rank_error.mean(),
        static_cast<long long>(agg.max_rank_error),
        static_cast<long long>(agg.errors));
  }
  std::printf("};\n");
}

void CheckAgainstGoldenTable() {
  auto aggregates =
      RunExperiment(GoldenConfig(), PaperAlgorithms(), kGoldenRuns);
  ASSERT_TRUE(aggregates.ok()) << aggregates.status().ToString();

  // NOLINTNEXTLINE(concurrency-mt-unsafe): startup-time config read
  if (std::getenv("WSNQ_UPDATE_GOLDEN") != nullptr) {
    PrintReplacementTable(aggregates.value());
    GTEST_SKIP() << "WSNQ_UPDATE_GOLDEN set: printed replacement table, "
                    "assertions skipped";
  }

  const size_t golden_count = sizeof(kGolden) / sizeof(kGolden[0]);
  ASSERT_EQ(aggregates.value().size(), golden_count)
      << "protocol set changed; regenerate the golden table";
  for (size_t i = 0; i < golden_count; ++i) {
    const AlgorithmAggregate& agg = aggregates.value()[i];
    const GoldenRow& want = kGolden[i];
    SCOPED_TRACE(std::string("algo=") + want.label);
    EXPECT_EQ(agg.label, want.label);
    EXPECT_EQ(agg.runs, kGoldenRuns);
    EXPECT_EQ(agg.max_round_energy_mj.mean(), want.energy_mean);
    EXPECT_EQ(agg.max_round_energy_mj.min(), want.energy_min);
    EXPECT_EQ(agg.max_round_energy_mj.max(), want.energy_max);
    EXPECT_EQ(agg.lifetime_rounds.mean(), want.lifetime_mean);
    EXPECT_EQ(agg.packets.mean(), want.packets_mean);
    EXPECT_EQ(agg.values.mean(), want.values_mean);
    EXPECT_EQ(agg.refinements.mean(), want.refinements_mean);
    EXPECT_EQ(agg.rank_error.mean(), want.rank_error_mean);
    EXPECT_EQ(agg.max_rank_error, want.max_rank_error);
    EXPECT_EQ(agg.errors, want.errors);
  }
}

TEST(GoldenAggregate, DefaultConfigMatchesFrozenValues) {
  CheckAgainstGoldenTable();
}

// The exactness headline of the paper on the frozen configuration, kept
// separate so a golden drift and an exactness break are distinguishable
// at a glance.
TEST(GoldenAggregate, DefaultConfigIsExact) {
  auto aggregates =
      RunExperiment(GoldenConfig(), PaperAlgorithms(), kGoldenRuns);
  ASSERT_TRUE(aggregates.ok());
  for (const AlgorithmAggregate& agg : aggregates.value()) {
    EXPECT_EQ(agg.errors, 0) << agg.label;
    EXPECT_EQ(agg.max_rank_error, 0) << agg.label;
  }
}

}  // namespace
}  // namespace wsnq

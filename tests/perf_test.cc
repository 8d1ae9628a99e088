// Tests of the performance-observability layer: the warmup+reps harness
// statistics (src/perf/bench_harness.h) and the prof:: stage profile
// (util/trace.h), whose spans carry wall clock and thread CPU time.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "perf/bench_harness.h"
#include "util/trace.h"

namespace wsnq {
namespace {

TEST(SummarizeSamplesTest, ExactStatisticsOnKnownInput) {
  const perf::RepStats stats =
      perf::SummarizeSamples({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(stats.reps, 5);
  EXPECT_DOUBLE_EQ(stats.median_s, 3.0);
  // Deviations from the median are {2,1,0,1,2}; their median is 1.
  EXPECT_DOUBLE_EQ(stats.mad_s, 1.0);
  EXPECT_DOUBLE_EQ(stats.min_s, 1.0);
  EXPECT_DOUBLE_EQ(stats.max_s, 5.0);
  EXPECT_DOUBLE_EQ(stats.mean_s, 3.0);
  // Population stddev of {1..5} is sqrt(2).
  EXPECT_NEAR(stats.cv, std::sqrt(2.0) / 3.0, 1e-12);
  EXPECT_EQ(stats.samples_s.size(), 5u);
}

TEST(SummarizeSamplesTest, MadIsRobustToAnOutlier) {
  // One 100x outlier moves mean/max but not median/MAD — the property the
  // bench_compare gate relies on.
  const perf::RepStats stats =
      perf::SummarizeSamples({1.0, 1.1, 0.9, 1.0, 100.0});
  EXPECT_DOUBLE_EQ(stats.median_s, 1.0);
  EXPECT_NEAR(stats.mad_s, 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(stats.max_s, 100.0);
  EXPECT_GT(stats.mean_s, 20.0);
}

TEST(SummarizeSamplesTest, DegenerateInputs) {
  const perf::RepStats empty = perf::SummarizeSamples({});
  EXPECT_EQ(empty.reps, 0);
  EXPECT_DOUBLE_EQ(empty.median_s, 0.0);
  EXPECT_DOUBLE_EQ(empty.mad_s, 0.0);

  const perf::RepStats single = perf::SummarizeSamples({7.0});
  EXPECT_EQ(single.reps, 1);
  EXPECT_DOUBLE_EQ(single.median_s, 7.0);
  EXPECT_DOUBLE_EQ(single.mad_s, 0.0);
  EXPECT_DOUBLE_EQ(single.cv, 0.0);

  // Even-size input: the repo's Median interpolates order statistics.
  const perf::RepStats pair = perf::SummarizeSamples({1.0, 3.0});
  EXPECT_DOUBLE_EQ(pair.median_s, 2.0);
  EXPECT_DOUBLE_EQ(pair.mad_s, 1.0);
}

TEST(BenchHarnessTest, RunsWarmupPlusRepsAndSummarizes) {
  int calls = 0;
  const perf::BenchHarness harness(/*warmup=*/2, /*reps=*/3);
  int code = -1;
  const perf::RepStats stats =
      harness.Measure([&calls]() { ++calls; return 0; }, &code);
  EXPECT_EQ(code, 0);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(stats.reps, 3);
  ASSERT_EQ(stats.samples_s.size(), 3u);
  EXPECT_GE(stats.min_s, 0.0);
  EXPECT_GE(stats.median_s, stats.min_s);
  EXPECT_LE(stats.median_s, stats.max_s);
}

TEST(BenchHarnessTest, NonzeroWarmupAbortsBeforeMeasuring) {
  int calls = 0;
  const perf::BenchHarness harness(/*warmup=*/1, /*reps=*/5);
  int code = 0;
  const perf::RepStats stats =
      harness.Measure([&calls]() { ++calls; return 7; }, &code);
  EXPECT_EQ(code, 7);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.reps, 0);
}

TEST(BenchHarnessTest, NonzeroRepStopsEarlyAndKeepsPartialSamples) {
  int calls = 0;
  const perf::BenchHarness harness(/*warmup=*/0, /*reps=*/5);
  int code = 0;
  const perf::RepStats stats = harness.Measure(
      [&calls]() { return ++calls == 2 ? 3 : 0; }, &code);
  EXPECT_EQ(code, 3);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(stats.reps, 2);
}

TEST(BenchHarnessTest, ClampsDegenerateArguments) {
  const perf::BenchHarness harness(/*warmup=*/-3, /*reps=*/0);
  EXPECT_EQ(harness.warmup(), 0);
  EXPECT_EQ(harness.reps(), 1);
}

TEST(ProfSnapshotTest, TracksPerStageMinAndMax) {
  prof::ResetForTest();
  prof::AddSample("perf_test/minmax", 0.25, 0.125);
  prof::AddSample("perf_test/minmax", 0.5, 0.25);
  prof::AddSample("perf_test/minmax", 0.125, 0.0625);
  const std::vector<prof::StageReport> reports = prof::Snapshot();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].stage, "perf_test/minmax");
  EXPECT_EQ(reports[0].count, 3);
  EXPECT_DOUBLE_EQ(reports[0].total_s, 0.875);
  EXPECT_DOUBLE_EQ(reports[0].min_s, 0.125);
  EXPECT_DOUBLE_EQ(reports[0].max_s, 0.5);
  EXPECT_DOUBLE_EQ(reports[0].cpu_s, 0.4375);
}

// Slack for comparing the thread CPU clock with the wall clock: they are
// different clocks, each with its own accounting granularity.
constexpr double kClockSlackS = 1e-3;

// Keeps the calling thread busy for `seconds` of wall time.
int64_t BusyLoop(double seconds) {
  const double until = prof::WallSeconds() + seconds;
  volatile int64_t sink = 0;
  while (prof::WallSeconds() < until) {
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  return sink;
}

// A span around real work reports the thread's CPU time: positive, never
// more than the span's wall time, and summed across samples.
TEST(ProfSnapshotTest, ScopedTimerChargesThreadCpuTime) {
  prof::Enable();
  prof::ResetForTest();
  for (int i = 0; i < 2; ++i) {
    prof::ScopedTimer timer("perf_test/busy");
    EXPECT_GT(BusyLoop(0.02), 0);
  }
  const std::vector<prof::StageReport> first = prof::Snapshot();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].count, 2);
  EXPECT_GT(first[0].cpu_s, 0.0);
  EXPECT_LE(first[0].cpu_s, first[0].total_s + 2 * kClockSlackS);
  {
    prof::ScopedTimer timer("perf_test/busy");
    EXPECT_GT(BusyLoop(0.02), 0);
  }
  const std::vector<prof::StageReport> second = prof::Snapshot();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].count, 3);
  // The third span's CPU time is added to the first two spans' sum.
  EXPECT_GT(second[0].cpu_s, first[0].cpu_s);
  EXPECT_LE(second[0].cpu_s - first[0].cpu_s,
            second[0].total_s - first[0].total_s + kClockSlackS);
  prof::ResetForTest();
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string text;
  char buf[512];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(f);
  return text;
}

// Every stage in the JSON report carries the same five numbers, and none
// of them can be null.
TEST(ProfSnapshotTest, JsonCarriesCpuTimeOnEveryStage) {
  prof::Enable();
  prof::ResetForTest();
  prof::AddSample("perf_test/a", 0.5, 0.25);
  { prof::ScopedTimer timer("perf_test/b"); }
  const std::string path = testing::TempDir() + "perf_test_profile.json";
  ASSERT_TRUE(prof::WriteJson(path).ok());
  const std::string json = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(json.find("null"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"stage\":\"perf_test/a\",\"count\":1,"
                      "\"total_s\":0.500000,\"min_s\":0.500000,"
                      "\"max_s\":0.500000,\"cpu_s\":0.250000}"),
            std::string::npos)
      << json;
  size_t stages = 0;
  for (size_t at = json.find("\"stage\":"); at != std::string::npos;
       at = json.find("\"stage\":", at + 1)) {
    ++stages;
    const size_t end = json.find('}', at);
    const std::string stage = json.substr(at, end - at);
    for (const char* field : {"\"count\":", "\"total_s\":", "\"min_s\":",
                              "\"max_s\":", "\"cpu_s\":"}) {
      EXPECT_NE(stage.find(field), std::string::npos) << field << stage;
    }
  }
  EXPECT_EQ(stages, 2u) << json;
  prof::ResetForTest();
}

}  // namespace
}  // namespace wsnq

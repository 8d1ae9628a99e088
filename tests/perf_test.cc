// Tests of the performance-observability layer (src/perf/): the
// perf_event_open fallback path, the warmup+reps harness statistics, and
// the StageCollector's attribution of counter/alloc deltas to prof::
// stages. The counter-denied path is forced deterministically
// (CounterSet::ForceUnavailableForTest) because whether the host grants
// perf_event_open is a property of the container, not the build — both
// branches must behave.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "perf/alloc_observer.h"
#include "perf/bench_harness.h"
#include "perf/counters.h"
#include "perf/stage_collector.h"
#include "util/trace.h"

namespace wsnq {
namespace {

TEST(CounterSetTest, ForcedUnavailableFallsBackGracefully) {
  perf::CounterSet::ForceUnavailableForTest(true);
  {
    const perf::CounterSet set;
    EXPECT_FALSE(set.ok());
    // The simulated denial reads like the real one (EPERM from
    // kernel.perf_event_paranoid) so log lines stay greppable.
    EXPECT_NE(set.error().find("EPERM"), std::string::npos) << set.error();
    const perf::CounterReading reading = set.Read();
    EXPECT_FALSE(reading.valid);
    EXPECT_EQ(reading.cycles, -1);
    EXPECT_EQ(reading.instructions, -1);
    EXPECT_EQ(reading.cache_misses, -1);
    EXPECT_EQ(reading.branch_misses, -1);
    EXPECT_EQ(reading.task_clock_ns, -1);
  }
  perf::CounterSet::ForceUnavailableForTest(false);
}

TEST(CounterSetTest, NaturalConstructionIsCoherent) {
  const perf::CounterSet set;
  const perf::CounterReading reading = set.Read();
  EXPECT_EQ(reading.valid, set.ok());
  if (!perf::CounterSet::Supported()) {
    EXPECT_FALSE(set.ok());
  }
  if (!set.ok()) {
    EXPECT_FALSE(set.error().empty());
  } else {
    // The task clock is a software event: available whenever the syscall
    // is, monotone from counter creation.
    EXPECT_GE(reading.task_clock_ns, 0);
  }
}

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
  prof::AddSample("perf_test/minmax", 0.25);
  prof::AddSample("perf_test/minmax", 0.5);
  prof::AddSample("perf_test/minmax", 0.125);
  const std::vector<prof::StageReport> reports = prof::Snapshot();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].stage, "perf_test/minmax");
  EXPECT_EQ(reports[0].count, 3);
  EXPECT_DOUBLE_EQ(reports[0].total_s, 0.875);
  EXPECT_DOUBLE_EQ(reports[0].min_s, 0.125);
  EXPECT_DOUBLE_EQ(reports[0].max_s, 0.5);
  EXPECT_TRUE(reports[0].extras.empty());
}

TEST(ProfSnapshotTest, MergesExtrasAcrossSamples) {
  prof::ResetForTest();
  prof::StageExtras extras;
  extras.counter_spans = 1;
  extras.cycles = 100;
  extras.instructions = 200;
  extras.task_clock_s = 0.25;
  prof::AddSampleWithExtras("perf_test/extras", 0.5, &extras);
  prof::AddSampleWithExtras("perf_test/extras", 0.5, &extras);
  const std::vector<prof::StageReport> reports = prof::Snapshot();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].extras.counter_spans, 2);
  EXPECT_EQ(reports[0].extras.cycles, 200);
  EXPECT_EQ(reports[0].extras.instructions, 400);
  EXPECT_DOUBLE_EQ(reports[0].extras.task_clock_s, 0.5);
  EXPECT_EQ(reports[0].extras.alloc_spans, 0);
}

// A host can open some events and not others (a PMU-less VM opens only
// task-clock). The missing events read -1; that marker must survive the
// merge — a sum over spans that lack the event is unknown, not 0 — and
// the report must write null for it.
TEST(ProfSnapshotTest, UnavailableCountersStayUnavailableThroughMerge) {
  prof::ResetForTest();
  prof::StageExtras partial;
  partial.counter_spans = 1;
  partial.cycles = -1;
  partial.instructions = -1;
  partial.cache_misses = -1;
  partial.branch_misses = -1;
  partial.task_clock_s = 0.25;
  prof::StageExtras full = partial;
  full.cycles = 100;
  full.instructions = 200;
  full.cache_misses = 3;
  full.branch_misses = 4;
  prof::AddSampleWithExtras("perf_test/partial", 0.5, &full);
  prof::AddSampleWithExtras("perf_test/partial", 0.5, &partial);
  prof::AddSampleWithExtras("perf_test/partial", 0.5, &full);
  prof::StageExtras no_task_clock = full;
  no_task_clock.task_clock_s = -1.0;
  prof::AddSampleWithExtras("perf_test/no_task_clock", 0.5, &no_task_clock);
  prof::AddSampleWithExtras("perf_test/no_task_clock", 0.5, &full);
  const std::vector<prof::StageReport> reports = prof::Snapshot();
  ASSERT_EQ(reports.size(), 2u);
  const prof::StageExtras& no_clock = reports[0].extras;
  EXPECT_EQ(no_clock.counter_spans, 2);
  EXPECT_EQ(no_clock.cycles, 200);
  EXPECT_EQ(no_clock.task_clock_s, -1.0);
  const prof::StageExtras& merged = reports[1].extras;
  EXPECT_EQ(merged.counter_spans, 3);
  EXPECT_EQ(merged.cycles, -1);
  EXPECT_EQ(merged.instructions, -1);
  EXPECT_EQ(merged.cache_misses, -1);
  EXPECT_EQ(merged.branch_misses, -1);
  EXPECT_DOUBLE_EQ(merged.task_clock_s, 0.75);

  const std::string path = testing::TempDir() + "perf_test_partial.json";
  ASSERT_TRUE(prof::WriteJson(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string json;
  char buf[512];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    json.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"cycles\":null,\"instructions\":null,"
                      "\"cache_misses\":null,\"branch_misses\":null,"
                      "\"task_clock_s\":0.750000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cycles\":200"), std::string::npos) << json;
  EXPECT_NE(json.find("\"task_clock_s\":null"), std::string::npos) << json;
  prof::ResetForTest();
}

// The status line names what opened: "on" for every event, the opened
// events for a partial set, "off" with a reason for none.
TEST(StageCollectorTest, StatusLineNamesOpenedEvents) {
  const std::string status = perf::InstallStageCollector();
  perf::UninstallStageCollectorForTest();
  const std::vector<std::string> opened = perf::CounterSet().OpenedEvents();
  if (opened.empty()) {
    EXPECT_NE(status.find("counters=off ("), std::string::npos) << status;
  } else if (opened.size() == 5) {
    EXPECT_NE(status.find("counters=on"), std::string::npos) << status;
  } else {
    std::string names;
    for (const std::string& name : opened) {
      names += (names.empty() ? "" : ",") + name;
    }
    EXPECT_NE(status.find("counters=partial(" + names + ")"),
              std::string::npos)
        << status;
  }
}

TEST(CounterSetTest, OpenedEventsMatchAvailability) {
  perf::CounterSet::ForceUnavailableForTest(true);
  EXPECT_TRUE(perf::CounterSet().OpenedEvents().empty());
  perf::CounterSet::ForceUnavailableForTest(false);
  const perf::CounterSet set;
  EXPECT_EQ(set.ok(), !set.OpenedEvents().empty());
}

// The full fallback path through the collector: a thread whose counters
// are denied must still profile — wall clock always, alloc deltas when
// the hooks are compiled in, counter_spans == 0. The denial is forced
// deterministically by dropping this thread's lazily opened CounterSet
// and re-opening it under the EPERM simulation.
TEST(StageCollectorTest, CounterDenialDegradesToWallClockSpans) {
  prof::Enable();
  prof::ResetForTest();
  std::ignore = perf::InstallStageCollector();
  perf::CounterSet::ForceUnavailableForTest(true);
  perf::ResetThreadCountersForTest();
  {
    prof::ScopedTimer timer("perf_test/forced_off");
    std::vector<int> sink(256, 1);
    EXPECT_EQ(sink.back(), 1);
  }
  perf::CounterSet::ForceUnavailableForTest(false);
  perf::ResetThreadCountersForTest();
  perf::UninstallStageCollectorForTest();
  for (const prof::StageReport& report : prof::Snapshot()) {
    if (report.stage != "perf_test/forced_off") continue;
    EXPECT_EQ(report.count, 1);
    EXPECT_GE(report.min_s, 0.0);
    EXPECT_EQ(report.extras.counter_spans, 0);
    EXPECT_EQ(report.extras.cycles, 0);
    if (perf::AllocHooksCompiledIn()) {
      EXPECT_EQ(report.extras.alloc_spans, 1);
      EXPECT_GE(report.extras.alloc_count, 1);
    }
    return;
  }
  FAIL() << "stage perf_test/forced_off not in snapshot";
}

TEST(StageCollectorTest, ChargesAllocDeltasToEnclosingStage) {
  prof::Enable();
  prof::ResetForTest();
  const std::string status = perf::InstallStageCollector();
  EXPECT_NE(status.find("# perf"), std::string::npos) << status;
  {
    prof::ScopedTimer timer("perf_test/alloc_stage");
    auto* spill = new std::vector<int64_t>(1024, 7);
    EXPECT_EQ(spill->size(), 1024u);
    delete spill;
  }
  perf::UninstallStageCollectorForTest();
  const std::vector<prof::StageReport> reports = prof::Snapshot();
  for (const prof::StageReport& report : reports) {
    if (report.stage != "perf_test/alloc_stage") continue;
    EXPECT_EQ(report.count, 1);
    if (!perf::AllocHooksCompiledIn()) {
      EXPECT_EQ(report.extras.alloc_spans, 0);
      GTEST_SKIP() << "WSNQ_PERF_ALLOC off: alloc attribution compiled out "
                      "(build the perf-alloc preset to exercise it)";
    }
    EXPECT_EQ(report.extras.alloc_spans, 1);
    EXPECT_GE(report.extras.alloc_count, 1);
    // The vector above asked for at least 8 KiB in one shot.
    EXPECT_GE(report.extras.alloc_bytes, 1024 * 8);
    return;
  }
  FAIL() << "stage perf_test/alloc_stage not in snapshot";
}

TEST(AllocObserverTest, SnapshotIsMonotoneWhenCompiledIn) {
  if (!perf::AllocHooksCompiledIn()) {
    EXPECT_EQ(perf::ThreadAllocSnapshot().count, 0);
    EXPECT_EQ(perf::ThreadAllocSnapshot().bytes, 0);
    GTEST_SKIP() << "WSNQ_PERF_ALLOC off: hooks report zeros";
  }
  const perf::AllocSnapshot before = perf::ThreadAllocSnapshot();
  auto* spill = new std::vector<int>(512, 3);
  const perf::AllocSnapshot after = perf::ThreadAllocSnapshot();
  delete spill;
  EXPECT_GE(after.count, before.count + 1);
  EXPECT_GE(after.bytes, before.bytes + 512 * 4);
}

}  // namespace
}  // namespace wsnq

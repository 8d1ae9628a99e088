#include "mc/enumerate.h"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mc/runner.h"
#include "mc/schedule.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace wsnq {
namespace {

/// Drop budget of one subspace: crashes get their own (typically smaller)
/// budget, else the cross product explodes.
int DropBudget(const McOptions& options, const McCrashSpec& crash) {
  return crash.none() ? options.max_drops : options.crash_max_drops;
}

/// Deterministic per-task accumulator, folded on the caller in task order.
struct TaskAccum {
  int64_t explored = 0;
  int64_t max_frames = 0;
  std::vector<uint64_t> fingerprints;  ///< DFS order
  std::vector<McViolation> violations; ///< first few, DFS order
  int64_t violation_count = 0;

  void Record(const ScheduleResult& result) {
    ++explored;
    max_frames = std::max(max_frames, result.frames_sent);
    fingerprints.push_back(result.fingerprint);
    if (result.violated) {
      ++violation_count;
      if (static_cast<int>(violations.size()) <
          EnumerationResult::kMaxViolations) {
        violations.push_back(result.violation);
      }
    }
  }
};

/// DFS over every extension of `drops` (already executed, having sent
/// `frames` data frames) with `budget` more drops allowed. `drops` is the
/// shared mutable path; restored before returning.
void ExploreExtensions(McContext* context, const McOptions& options,
                       AlgorithmKind algo, const McCrashSpec& crash,
                       std::vector<int64_t>* drops, int64_t frames,
                       int budget, TaskAccum* accum) {
  if (budget <= 0) return;
  const int64_t start = drops->empty() ? 0 : drops->back() + 1;
  for (int64_t next = start; next < frames; ++next) {
    drops->push_back(next);
    FaultSchedule schedule;
    schedule.drops = *drops;
    schedule.crash = crash;
    const ScheduleResult result =
        RunSchedule(context, options, algo, schedule);
    // Canonicalization invariant: every enumerated drop hits a frame the
    // run sends (prefix determinism guarantees ordinal `next` is reached).
    WSNQ_DCHECK_EQ(result.applied_drops,
                   static_cast<int>(drops->size()));
    accum->Record(result);
    ExploreExtensions(context, options, algo, crash, drops,
                      result.frames_sent, budget - 1, accum);
    drops->pop_back();
  }
}

/// One (protocol, crash spec) subspace of the exploration.
struct Subspace {
  AlgorithmKind algo = AlgorithmKind::kTag;
  McCrashSpec crash;
};

/// One parallel work unit: the first-drop range [first_lo, first_hi) of a
/// subspace. Budget-1 subspaces pack their whole range into one task (each
/// first is a single run); deeper budgets get one task per first drop so
/// the heavy subtrees spread across workers.
struct Task {
  int subspace = 0;
  int64_t first_lo = 0;
  int64_t first_hi = 0;
};

}  // namespace

std::vector<McCrashSpec> EnumerateCrashSpecs(const McOptions& options,
                                             int num_vertices, int root) {
  std::vector<McCrashSpec> specs;
  if (options.max_crashes < 1) return specs;
  WSNQ_CHECK_LE(options.max_crashes, 1);  // single-crash bound (ROADMAP)
  for (int v = 0; v < num_vertices; ++v) {
    if (v == root) continue;
    for (int64_t round = 1; round < options.rounds; ++round) {
      for (int64_t len : options.crash_lens) {
        McCrashSpec spec;
        spec.victim = v;
        spec.crash_round = round;
        spec.crash_len = len;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

StatusOr<EnumerationResult> RunEnumeration(const McOptions& options) {
  WSNQ_CHECK_GE(options.rounds, 1);
  WSNQ_CHECK_GE(options.max_drops, 0);
  WSNQ_CHECK_GE(options.crash_max_drops, 0);

  // Validate the scenario once up front; tasks rebuild deterministically.
  StatusOr<McContext> probe = BuildMcContext(options);
  if (!probe.ok()) return probe.status();
  const Network& probe_net = *probe.value().scenario.network;
  const int num_vertices = probe_net.num_vertices();
  const int root = probe_net.external_id(probe_net.root());

  const std::vector<AlgorithmKind> algorithms =
      options.algorithms.empty() ? PaperAlgorithms() : options.algorithms;
  const std::vector<McCrashSpec> crash_specs =
      EnumerateCrashSpecs(options, num_vertices, root);

  std::vector<Subspace> subspaces;
  for (AlgorithmKind algo : algorithms) {
    Subspace none;
    none.algo = algo;
    subspaces.push_back(none);
    for (const McCrashSpec& crash : crash_specs) {
      Subspace sub;
      sub.algo = algo;
      sub.crash = crash;
      subspaces.push_back(sub);
    }
  }

  const int threads =
      options.threads > 0 ? options.threads : ThreadPool::DefaultThreadCount();
  ThreadPool pool(threads);

  // Phase 1: the empty schedule of every subspace, for its frame count m0
  // (the first-drop range) and its own invariant check.
  std::vector<TaskAccum> empty_accums(subspaces.size());
  std::vector<int64_t> empty_frames(subspaces.size(), 0);
  Status status = pool.ParallelFor(
      static_cast<int64_t>(subspaces.size()), [&](int64_t i) -> Status {
        const Subspace& sub = subspaces[static_cast<size_t>(i)];
        StatusOr<McContext> context = BuildMcContext(options);
        if (!context.ok()) return context.status();
        FaultSchedule empty;
        empty.crash = sub.crash;
        const ScheduleResult result =
            RunSchedule(&context.value(), options, sub.algo, empty);
        empty_accums[static_cast<size_t>(i)].Record(result);
        empty_frames[static_cast<size_t>(i)] = result.frames_sent;
        return Status::Ok();
      });
  if (!status.ok()) return status;

  // Phase 2: dropped-frame schedules, split by first drop.
  std::vector<Task> tasks;
  for (size_t i = 0; i < subspaces.size(); ++i) {
    const int budget = DropBudget(options, subspaces[i].crash);
    const int64_t m0 = empty_frames[i];
    if (budget < 1 || m0 == 0) continue;
    if (budget == 1) {
      Task task;
      task.subspace = static_cast<int>(i);
      task.first_hi = m0;
      tasks.push_back(task);
    } else {
      for (int64_t first = 0; first < m0; ++first) {
        Task task;
        task.subspace = static_cast<int>(i);
        task.first_lo = first;
        task.first_hi = first + 1;
        tasks.push_back(task);
      }
    }
  }

  std::vector<TaskAccum> task_accums(tasks.size());
  status = pool.ParallelFor(
      static_cast<int64_t>(tasks.size()), [&](int64_t t) -> Status {
        const Task& task = tasks[static_cast<size_t>(t)];
        const Subspace& sub =
            subspaces[static_cast<size_t>(task.subspace)];
        StatusOr<McContext> context = BuildMcContext(options);
        if (!context.ok()) return context.status();
        TaskAccum* accum = &task_accums[static_cast<size_t>(t)];
        const int budget = DropBudget(options, sub.crash);
        std::vector<int64_t> drops;
        for (int64_t first = task.first_lo; first < task.first_hi;
             ++first) {
          drops.assign(1, first);
          FaultSchedule schedule;
          schedule.drops = drops;
          schedule.crash = sub.crash;
          const ScheduleResult result =
              RunSchedule(&context.value(), options, sub.algo, schedule);
          WSNQ_DCHECK_EQ(result.applied_drops, 1);
          accum->Record(result);
          ExploreExtensions(&context.value(), options, sub.algo, sub.crash,
                            &drops, result.frames_sent, budget - 1, accum);
        }
        return Status::Ok();
      });
  if (!status.ok()) return status;

  // Deterministic fold: subspace order for the empty schedules, then task
  // order — independent of which worker ran what.
  EnumerationResult result;
  McStats& stats = result.stats;
  stats.subspaces = static_cast<int64_t>(subspaces.size());
  stats.crash_specs = static_cast<int64_t>(crash_specs.size());

  std::vector<int64_t> subspace_explored(subspaces.size(), 0);
  std::vector<int64_t> subspace_cap(subspaces.size(), 0);
  std::unordered_set<uint64_t> seen_states;
  auto fold = [&](int subspace, const TaskAccum& accum) {
    subspace_explored[static_cast<size_t>(subspace)] += accum.explored;
    subspace_cap[static_cast<size_t>(subspace)] =
        std::max(subspace_cap[static_cast<size_t>(subspace)],
                 accum.max_frames);
    stats.explored += accum.explored;
    stats.max_frames = std::max(stats.max_frames, accum.max_frames);
    stats.violations += accum.violation_count;
    for (uint64_t fp : accum.fingerprints) {
      if (!seen_states.insert(fp).second) ++stats.duplicate_states;
    }
    for (const McViolation& violation : accum.violations) {
      if (static_cast<int>(result.violations.size()) <
          EnumerationResult::kMaxViolations) {
        result.violations.push_back(violation);
      }
    }
  };
  for (size_t i = 0; i < subspaces.size(); ++i) {
    fold(static_cast<int>(i), empty_accums[i]);
  }
  for (size_t t = 0; t < tasks.size(); ++t) {
    fold(tasks[t].subspace, task_accums[t]);
  }
  stats.distinct_states = static_cast<int64_t>(seen_states.size());

  for (size_t i = 0; i < subspaces.size(); ++i) {
    const int64_t naive = NaiveScheduleCount(
        subspace_cap[i], DropBudget(options, subspaces[i].crash));
    stats.naive_total = SaturatingAdd(stats.naive_total, naive);
    // Every explored schedule is a distinct <= D-subset of [0, F_cap), so
    // explored <= naive holds per subspace by construction.
    WSNQ_CHECK_LE(subspace_explored[i], naive);
    stats.pruned = SaturatingAdd(stats.pruned, naive - subspace_explored[i]);
  }
  return result;
}

}  // namespace wsnq

// Bounded-exhaustive model checking of the fault schedule space
// (docs/robustness.md "Model checking"). Counter-keyed randomness makes
// every fault schedule a pure function of its key, so instead of sampling
// --loss runs the checker *enumerates* schedules — which uplink data
// frames drop (<= D of them) and which node crashes over which window
// (<= C victims) — and executes each one through the production
// FaultPlan / TransportPolicy seam with a ScriptedFaultOracle substituted
// for the hashed loss process. Per schedule it asserts the PR 4
// reliability invariants:
//
//   arq-exactness      no missing sensor => the answer equals OracleKth
//                      and rank error is 0 (ARQ's delivery theorem: with
//                      max_retx >= the drop budget and loss-free acks,
//                      every uplink delivers);
//   rank-bound         rank error <= number of missing sensors (crashed
//                      or detached) in every round;
//   tree-validity      the adopted tree is a valid routing tree of the
//                      live subgraph: live parents one BFS level up,
//                      dead/unreachable vertices detached;
//   epoch-reinit       the network's tree epoch equals the number of
//                      liveness transitions so far (each crash/recovery
//                      moves at least the victim's parent, so repair
//                      adopts exactly one tree per transition);
//   count-conservation root (l, e, g) sums to |N| when nothing is
//                      missing, and stays within [0, |N|] always.
//
// Violations are delta-debugged to a minimal failing schedule and
// serialized as a JSON repro (tests/mc_regressions/).

#ifndef WSNQ_MC_MC_H_
#define WSNQ_MC_MC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algo/registry.h"

namespace wsnq {

/// One enumerated crash: `victim` (an external vertex id,
/// Network::external_id) down for rounds
/// [crash_round, crash_round + crash_len). victim < 0 means no crash.
struct McCrashSpec {
  int victim = -1;
  int64_t crash_round = 0;
  int64_t crash_len = 0;

  bool none() const { return victim < 0; }
};

/// One point of the fault space: a set of dropped uplink-data-frame
/// ordinals (global send-order indices, ascending) plus an optional crash.
struct FaultSchedule {
  std::vector<int64_t> drops;
  McCrashSpec crash;
};

/// Bounds and scenario knobs of one model-checking session. The scenario
/// half mirrors SimulationConfig's synthetic dataset; defaults are chosen
/// so values move every round (short period, visible noise) and the radio
/// graph is well connected at tiny n.
struct McOptions {
  /// Total vertices (sensors + root); the ROADMAP bound is <= 12.
  int nodes = 8;
  double radio_range = 80.0;
  /// Total rounds executed per schedule, round 0 (initialization)
  /// included.
  int rounds = 4;
  uint64_t seed = 1;
  double phi = 0.5;
  double period_rounds = 10.0;
  double noise_percent = 15.0;

  /// Drop budget D of the crash-free subspace.
  int max_drops = 2;
  /// Crash budget C: 0 disables churn subspaces, 1 enumerates every
  /// (victim, crash_round, crash_len) single-crash window.
  int max_crashes = 0;
  /// Drop budget inside each crashed subspace (the cross product explodes
  /// combinatorially, so crashes get their own — typically smaller —
  /// budget).
  int crash_max_drops = 1;
  /// Crash windows enumerated per victim: every crash_round in
  /// [1, rounds - 1) x every length in crash_lens.
  std::vector<int64_t> crash_lens = {1, 2};

  bool arq = true;
  int max_retx = 16;

  /// Protocols checked; empty = the paper's six exact algorithms.
  std::vector<AlgorithmKind> algorithms;

  /// Worker threads (0 = auto). Explored/pruned counts and violation
  /// reports are bit-identical for every value.
  int threads = 0;
};

/// One invariant violation, bound to the schedule that produced it.
struct McViolation {
  std::string invariant;  ///< "arq-exactness", "tree-validity", ...
  AlgorithmKind algo = AlgorithmKind::kTag;
  FaultSchedule schedule;
  int64_t round = -1;     ///< round the invariant first broke
  std::string detail;     ///< human-readable expected-vs-got
};

/// What executing one schedule observed.
struct ScheduleResult {
  bool violated = false;
  McViolation violation;    ///< first violation when violated
  int64_t frames_sent = 0;  ///< uplink data frames that consulted the oracle
  int applied_drops = 0;    ///< scheduled drops that hit a sent frame
  uint64_t fingerprint = 0; ///< reached-state hash (frame trace + answers)
};

/// Exploration accounting, folded deterministically in task order.
struct McStats {
  int64_t explored = 0;      ///< canonical schedules executed
  int64_t naive_total = 0;   ///< sum over subspaces of sum_j C(F_cap, j)
  int64_t pruned = 0;        ///< naive_total - explored
  int64_t subspaces = 0;     ///< (protocol, crash spec) pairs
  int64_t crash_specs = 0;   ///< crash specs enumerated (excl. the none spec)
  int64_t max_frames = 0;    ///< max frames_sent over all schedules
  int64_t distinct_states = 0;
  int64_t duplicate_states = 0;
  int64_t violations = 0;
};

/// A minimized, serializable counterexample (tests/mc_regressions/*.json).
struct McRepro {
  std::string invariant;
  AlgorithmKind algo = AlgorithmKind::kTag;
  McOptions options;       ///< scenario knobs the schedule replays under
  FaultSchedule schedule;  ///< minimal failing schedule
  std::string detail;
};

}  // namespace wsnq

#endif  // WSNQ_MC_MC_H_

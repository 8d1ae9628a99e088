#!/usr/bin/env python3
"""Diffs two BENCH_<date>.json snapshots with noise-aware thresholds.

Usage:
  tools/bench_compare.py OLD.json NEW.json [--k=3.0] [--rel-floor=0.05]
                         [--micro-rel=0.25]

Gating rule (the tentpole of the bench pipeline): a harness bench (fig6,
loss_sweep, ...) counts as a REGRESSION only when ALL three hold:

  * noise gate:    new_median > old_median + k * max(old_mad, new_mad)
    — the delta exceeds k median-absolute-deviations of either run, so
    ordinary within-run jitter (which the MAD measures directly) cannot
    trip it. With --reps=1 the MAD is 0 and this gate degenerates to the
    relative floor alone; record snapshots with reps >= 3.
  * relative floor: new_median > old_median * (1 + rel_floor)
    — tiny-but-statistically-clean deltas (microseconds on a fast stage)
    are not worth a red build.
  * floor shift:   new_min > old_min * (1 + rel_floor)
    — the min across reps is the contention-free floor; a real slowdown
    raises it along with the median, while between-run machine drift
    (CPU frequency, cgroup share — larger than the within-run MAD on a
    busy 1-core box) inflates the median but leaves the best rep close
    to the old floor. Skipped when either snapshot lacks min_s.

All gates must trip; an improvement can never regress. Micro benchmarks
(Google Benchmark, single sample, no MAD) are compared with a generous
relative-only threshold (--micro-rel, default 25%); this is also what
gates the BM_RunProtocols/{n} per-round protocol medians that track the
run_protocols hot loop (bench/micro_primitives.cc).

Exit codes: 0 = no regression, 1 = regression(s) flagged, 2 = unusable
input (missing file, schema mismatch, malformed snapshot). The CI
bench-regression job runs this informationally at first (docs/
observability.md explains the promotion path to a hard gate).

Cross-machine diffs (different hostname/compiler/build type in the
metadata blocks) are reported with a warning — the numbers still print,
but a regression verdict between different machines is noise by
construction, so gating is skipped unless --force-cross-machine.
"""

import argparse
import json
import sys

SCHEMA_VERSION = 2


def load_snapshot(path):
    with open(path, encoding="utf-8") as f:
        snapshot = json.load(f)
    schema = snapshot.get("schema", 1)
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema {schema} != {SCHEMA_VERSION} (regenerate with "
            f"tools/bench_snapshot.py; v1 snapshots lack the MAD statistics "
            f"this tool gates on)")
    return snapshot


def metadata_mismatches(old, new):
    """Returns the metadata keys on which the two snapshots disagree."""
    keys = ("hostname", "arch", "compiler", "build_type", "cxx_flags")
    old_meta = old.get("metadata", {})
    new_meta = new.get("metadata", {})
    return [k for k in keys if old_meta.get(k) != new_meta.get(k)]


def compare_benches(old, new, k, rel_floor):
    """Yields (name, old_median, new_median, delta_pct, verdict) rows.

    verdict is "regression", "improved", or "ok"."""
    old_benches = old.get("benches", {})
    new_benches = new.get("benches", {})
    for name in sorted(set(old_benches) & set(new_benches)):
        o, n = old_benches[name], new_benches[name]
        old_median, new_median = o.get("median_s"), n.get("median_s")
        if old_median is None or new_median is None:
            continue
        delta_pct = ((new_median - old_median) / old_median * 100.0
                     if old_median > 0 else 0.0)
        noise_band = k * max(o.get("mad_s") or 0.0, n.get("mad_s") or 0.0)
        old_min, new_min = o.get("min_s"), n.get("min_s")
        floor_up = (old_min is None or new_min is None
                    or new_min > old_min * (1.0 + rel_floor))
        floor_down = (old_min is None or new_min is None
                      or old_min > new_min * (1.0 + rel_floor))
        regressed = (new_median > old_median + noise_band
                     and new_median > old_median * (1.0 + rel_floor)
                     and floor_up)
        improved = (old_median > new_median + noise_band
                    and old_median > new_median * (1.0 + rel_floor)
                    and floor_down)
        verdict = ("regression" if regressed
                   else "improved" if improved else "ok")
        yield name, old_median, new_median, delta_pct, verdict


def compare_micro(old, new, micro_rel):
    """Yields (name, old_real, new_real, delta_pct, verdict) rows."""
    def by_name(snapshot):
        return {b["name"]: b
                for b in snapshot.get("micro", {}).get("benchmarks", [])}
    old_micro, new_micro = by_name(old), by_name(new)
    for name in sorted(set(old_micro) & set(new_micro)):
        old_real = old_micro[name]["real_time"]
        new_real = new_micro[name]["real_time"]
        delta_pct = ((new_real - old_real) / old_real * 100.0
                     if old_real > 0 else 0.0)
        regressed = new_real > old_real * (1.0 + micro_rel)
        improved = old_real > new_real * (1.0 + micro_rel)
        verdict = ("regression" if regressed
                   else "improved" if improved else "ok")
        yield name, old_real, new_real, delta_pct, verdict


def main():
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_<date>.json snapshots; exit 1 on "
                    "regression.")
    parser.add_argument("old", help="baseline snapshot (committed)")
    parser.add_argument("new", help="candidate snapshot (fresh)")
    parser.add_argument("--k", type=float, default=3.0,
                        help="noise gate width in MADs (default 3)")
    parser.add_argument("--rel-floor", type=float, default=0.05,
                        help="minimum relative slowdown to flag (default 5%%)")
    parser.add_argument("--micro-rel", type=float, default=0.25,
                        help="relative threshold for single-sample micro "
                             "benchmarks (default 25%%)")
    parser.add_argument("--force-cross-machine", action="store_true",
                        help="gate even when the metadata blocks disagree")
    args = parser.parse_args()

    try:
        old = load_snapshot(args.old)
        new = load_snapshot(args.new)
    except (OSError, json.JSONDecodeError, ValueError) as error:
        print(f"bench_compare: {error}", file=sys.stderr)
        return 2

    mismatched = metadata_mismatches(old, new)
    gate = not mismatched or args.force_cross_machine
    if mismatched:
        print(f"warning: snapshots differ on {', '.join(mismatched)}; "
              f"{'gating anyway (--force-cross-machine)' if gate else 'cross-machine deltas are informational only'}",
              file=sys.stderr)

    regressions = []
    print(f"{'bench':<24} {'old_median_s':>12} {'new_median_s':>12} "
          f"{'delta':>8}  verdict")
    for name, old_v, new_v, delta, verdict in compare_benches(
            old, new, args.k, args.rel_floor):
        print(f"{name:<24} {old_v:>12.6f} {new_v:>12.6f} "
              f"{delta:>+7.1f}%  {verdict}")
        if verdict == "regression":
            regressions.append(f"bench {name}: {delta:+.1f}%")

    print(f"\n{'micro':<44} {'old_ns':>10} {'new_ns':>10} "
          f"{'delta':>8}  verdict")
    for name, old_v, new_v, delta, verdict in compare_micro(
            old, new, args.micro_rel):
        print(f"{name:<44} {old_v:>10.1f} {new_v:>10.1f} "
              f"{delta:>+7.1f}%  {verdict}")
        if verdict == "regression":
            regressions.append(f"micro {name}: {delta:+.1f}%")

    if not gate:
        print("\ncross-machine compare: regressions not gated")
        return 0
    if regressions:
        print(f"\nREGRESSION: {len(regressions)} flagged "
              f"(k={args.k} MADs, rel-floor={args.rel_floor:.0%})")
        for line in regressions:
            print(f"  {line}")
        return 1
    print("\nno regressions flagged")
    return 0


if __name__ == "__main__":
    sys.exit(main())

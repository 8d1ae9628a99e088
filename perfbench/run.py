#!/usr/bin/env python3
"""The wsnq benchmark: builds perfbench/wsnq_perfbench from this checkout,
runs one workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload paper-default --seed 1 \\
        --seconds 10 --trace 0

Run it from the root of a checkout. Lines before the last are a
human-readable report, each starting with "# ". The last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. The build goes to $CARGO_TARGET_DIR/perfbench when that
names a directory inside the checkout, else to .bench_build/perfbench.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

WORKLOADS = ("paper-default", "scale-64k", "pressure-arq", "serve-churn")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = (ROOT / target).resolve()
    if ROOT not in path.parents and path != ROOT:
        path = ROOT / ".bench_build"
    return path / "perfbench"


def build():
    """Configures (once) and builds wsnq_perfbench; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "wsnq_perfbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return None
    binary = out / "wsnq_perfbench"
    return binary if binary.exists() else None


def git_provenance():
    """(rev, dirty) of the checkout, or (None, None) outside a git tree."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if rev.returncode != 0:
            return None, None
        status = subprocess.run(["git", "status", "--porcelain",
                                 "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True,
                                timeout=10)
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        return rev.stdout.strip(), dirty
    except (OSError, subprocess.SubprocessError):
        return None, None


def provenance(raw):
    rev, dirty = git_provenance()
    try:
        nproc = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        nproc = os.cpu_count()
    compiler = raw.get("compiler")
    return {
        "git_rev": benchlib.nullable(rev),
        "git_dirty": dirty,
        "nproc": benchlib.nullable(nproc),
        "compiler": None if compiler in (None, "", "unknown") else compiler,
        "build_type": benchlib.nullable(raw.get("build_type")),
        "machine": benchlib.nullable(platform.machine()),
        # No hardware counters are read: they are unavailable, not zero.
        "cycles": None,
        "instructions": None,
    }


def report_sim(raw):
    protos = raw["results"]
    c = raw["checks"]
    log_lines = [f"digest {raw['digest']}  (simulated outputs, run order)"]
    log_lines.append(
        f"arrangement check: case 0 replayed with "
        f"{c['arrangement_wave_threads']} wave threads (0: serial), "
        f"{c['arrangement_mismatches']} of {c['arrangement_replays']} "
        f"protocol replays differ")
    log_lines.append("protocol  hotspot_mJ/round  packets/round  values/round"
                     "  refinements/round  mismatches")
    for r in protos:
        log_lines.append(f"{r['name']:<8}  {r['hotspot_mj']:>16.9g}  "
                         f"{r['packets']:>13.9g}  {r['values']:>12.9g}  "
                         f"{r['refinements']:>17.9g}  {r['errors']:>10}")
    return log_lines


def report_serve(raw):
    c = raw["checks"]
    return [
        f"digest {raw['digest']}  (replayed stream costs)",
        f"pushes expected={c['pushes_expected']} received={c['pushes_received']}"
        f" missing={c['pushes_missing']} incorrect={c['pushes_incorrect']}",
        f"requests sent={c['requests_sent']} subscribes_ok={c['subscribes_ok']}"
        f" unsubscribes_ok={c['unsubscribes_ok']} refused={c['requests_refused']}"
        f" generator_fallbacks={c['generator_fallbacks']}",
    ]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            benchlib.validate_metric_name(metric["name"])

    binary = build()
    if binary is None:
        return 1
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    try:
        result = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if result.returncode != 0:
        log(result.stderr[-4000:])
        log(f"wsnq_perfbench exited with {result.returncode}")
        return 1
    raw = json.loads(result.stdout)

    failures = benchlib.failures(raw)
    lines = [f"workload {args.workload} seed {args.seed} "
             f"seconds {args.seconds} trace {args.trace}"]
    lines.append("provenance " + json.dumps(provenance(raw), sort_keys=True))
    lines.append("config " + json.dumps(raw["config"], sort_keys=True))
    lines += (report_sim(raw) if "iterations" in raw else report_serve(raw))
    lines.append("failures " + json.dumps(
        {k: {"attempted": a, "failed": f}
         for k, (a, f) in sorted(failures.kinds.items())}))

    values, tails = benchlib.end_to_end(raw)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name in sorted(values):
        unit = units.get(name, benchlib.REPORT_ONLY_UNITS.get(name, ""))
        note = "" if name in units else "  (reported, not gated)"
        lines.append(f"e2e {name} = {values[name]!r} {unit}{note}")
    for name, t in sorted(tails.items()):
        if t is None:
            lines.append(f"e2e {name} = n/a: fewer than "
                         f"{benchlib.TAIL_BEYOND + 1} samples")
        else:
            lines.append(f"e2e {name} = {t.value!r} ms  (p{t.percentile:.2f}"
                         f" of {t.count} samples; reported, not gated)")

    if args.trace:
        group = "per_layer"
        layer_values, not_exercised = benchlib.per_layer(raw)
        metrics_values = layer_values
        windows = benchlib.traced_windows(raw)
        own = benchlib.self_times(raw["spans"], windows)
        lines.append("self time per layer over traced units [s]: " +
                     json.dumps({k: round(v, 6) for k, v in sorted(own.items())}))
        lines.append(f"span coverage of traced units: "
                     f"{layer_values['trace.span_coverage']!r}")
        traced_values, _ = benchlib.end_to_end(raw, traced=True)
        for name in sorted(values):
            if values[name] is None or traced_values[name] is None:
                continue
            lines.append(
                f"tracing overhead {name}: traced {traced_values[name]!r} - "
                f"untraced {values[name]!r} = "
                f"{traced_values[name] - values[name]!r}")
        if not_exercised:
            lines.append("not exercised by this workload (reported as 0): " +
                         " ".join(not_exercised))
    else:
        group = "end_to_end"
        metrics_values = values

    metrics = {}
    for metric in spec[group]:
        name = metric["name"]
        value = metrics_values.get(name)
        if value is None or value != value or value in (float("inf"),
                                                         float("-inf")):
            log(f"metric {name} has no finite value")
            return 1
        metrics[name] = {"value": value, "unit": metric["unit"]}

    for line in lines:
        print("# " + line)
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

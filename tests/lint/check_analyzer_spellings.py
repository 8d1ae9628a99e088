#!/usr/bin/env python3
"""Pins the detections that came from the former deep analyzer.

tools/wsnq_lint.py merged the lint's bans with those of the old analyzer
(alias-resolved clock and RNG names, the POSIX clock calls, drand48,
pthread_create, raw syscall(), the layer DAG). PLANTS lists one spelling of
each of those, plus the lint-only <linux/perf_event.h> include that the
merged perf-syscall rule must also catch outside src/perf/.

  tree    Copies the scanned tree (src tests tools bench examples) into a
          temporary directory, appends every plant to a real source file,
          runs `wsnq_lint.py --root` on the copy and requires the findings
          to be exactly the planted lines: each plant fires its rule, and
          nothing else in the tree does.
  corpus  Requires tests/lint/corpus to hold, for each plant, a line in the
          same src/<layer>/ directory that carries the plant's spelling and
          a `lint-expect: <rule>` marker, so the union of both old corpora
          stays pinned by lint_corpus_test.

Usage: check_analyzer_spellings.py tree|corpus
Exit status: 0 when every plant is detected (tree) or pinned (corpus),
1 otherwise, 2 on usage error.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from typing import List, NamedTuple

REPO = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir))
LINT = os.path.join(REPO, "tools", "wsnq_lint.py")
CORPUS = os.path.join(REPO, "tests", "lint", "corpus")
SCANNED = ("src", "tests", "tools", "bench", "examples")


class Plant(NamedTuple):
    rule: str
    path: str  # repo-relative file the lines are appended to
    lines: List[str]
    hit: int  # index into lines of the line the rule must report
    spelling: str  # regex a pinning corpus line must match


PLANTS = [
    Plant("raw-clock", "src/core/scenario.cc",
          ["using clk = std::chrono::steady_clock;",
           "long PlantedAliasedNow() {",
           "  return clk::now().time_since_epoch().count();",
           "}"], 2, r"\bclk::now\("),
    Plant("raw-clock", "src/core/scenario.cc",
          ["long PlantedPosixClock(timespec* ts) {",
           "  return clock_gettime(0, ts);",
           "}"], 1, r"\bclock_gettime\("),
    Plant("raw-clock", "src/core/scenario.cc",
          ["long PlantedWallClock(timeval* tv) {",
           "  return gettimeofday(tv, nullptr);",
           "}"], 1, r"\bgettimeofday\("),
    Plant("raw-random", "src/core/scenario.cc",
          ["using PlantedGen = std::mt19937;"], 0,
          r"using \w+ = std::mt19937;"),
    Plant("raw-random", "src/core/scenario.cc",
          ["double PlantedDrand() {",
           "  return drand48();",
           "}"], 1, r"\bdrand48\("),
    Plant("raw-thread", "src/core/scenario.cc",
          ["void PlantedThread(pthread_t* tid) {",
           "  pthread_create(tid, nullptr, nullptr, nullptr);",
           "}"], 1, r"\bpthread_create\("),
    Plant("perf-syscall", "src/core/scenario.cc",
          ["long PlantedSyscall() {",
           "  return syscall(298, nullptr, 0, -1, -1, 0);",
           "}"], 1, r"\bsyscall\("),
    Plant("perf-syscall", "src/algo/iq.cc",
          ["#include <linux/perf_event.h>"], 0, r"<linux/perf_event\.h>"),
    Plant("layering", "src/net/wave.cc",
          ['#include "core/experiment.h"'], 0, r'#include "core/'),
]

FINDING_RE = re.compile(r"^(\S+?):(\d+): \[([a-z\-]+)\]")


def check_tree() -> int:
    with tempfile.TemporaryDirectory(prefix="wsnq-lint-plant-") as tmp:
        for top in SCANNED:
            shutil.copytree(os.path.join(REPO, top), os.path.join(tmp, top),
                            ignore=shutil.ignore_patterns(".*"))
        expected = set()
        for plant in PLANTS:
            path = os.path.join(tmp, plant.path)
            with open(path, encoding="utf-8") as f:
                start = len(f.read().splitlines())
            with open(path, "a", encoding="utf-8") as f:
                f.write("\n".join(plant.lines) + "\n")
            expected.add((plant.path, start + plant.hit + 1, plant.rule))
        proc = subprocess.run([sys.executable, LINT, "--root", tmp],
                              capture_output=True, text=True, timeout=120)
    found = set()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            found.add((m.group(1), int(m.group(2)), m.group(3)))
    ok = proc.returncode == 1
    if not ok:
        print(f"wsnq_lint.py exited {proc.returncode}, want 1")
        print(proc.stdout + proc.stderr)
    for path, line, rule in sorted(expected - found):
        print(f"MISSING    {path}:{line} [{rule}]")
        ok = False
    for path, line, rule in sorted(found - expected):
        print(f"UNEXPECTED {path}:{line} [{rule}]")
        ok = False
    if ok:
        print(f"ok: tree scan reports all {len(expected)} planted lines "
              "and nothing else")
    return 0 if ok else 1


def check_corpus() -> int:
    pinned = []  # (overlay-relative path, line text) of every marked line
    for dirpath, _, filenames in os.walk(CORPUS):
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            overlay_rel = os.path.relpath(path, CORPUS).replace(os.sep, "/")
            rel = overlay_rel.split("/", 1)[1]
            with open(path, encoding="utf-8", errors="replace") as f:
                pinned.extend((rel, line) for line in f
                              if "lint-expect:" in line)
    ok = True
    for plant in PLANTS:
        layer = os.path.dirname(plant.path) + "/"
        marker = f"lint-expect: {plant.rule}"
        if not any(rel.startswith(layer) and marker in line and
                   re.search(plant.spelling, line) for rel, line in pinned):
            print(f"UNPINNED   {plant.rule}: no corpus line under {layer} "
                  f"matches /{plant.spelling}/ with `{marker}`")
            ok = False
    if ok:
        print(f"ok: all {len(PLANTS)} spellings pinned in the corpus")
    return 0 if ok else 1


def main() -> int:
    modes = {"tree": check_tree, "corpus": check_corpus}
    if len(sys.argv) != 2 or sys.argv[1] not in modes:
        print("usage: check_analyzer_spellings.py tree|corpus",
              file=sys.stderr)
        return 2
    return modes[sys.argv[1]]()


if __name__ == "__main__":
    sys.exit(main())

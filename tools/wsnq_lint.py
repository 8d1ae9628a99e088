#!/usr/bin/env python3
"""wsnq-lint: repo-specific determinism, layering and hygiene rules that
generic tools can't express.

Rules (RULES below is the one table: each rule has one name and one
allowlist of sanctioned files or dir/ prefixes)
  raw-assert      No raw assert()/abort() outside src/util/check.h; all
                  invariant checking goes through WSNQ_CHECK/WSNQ_DCHECK so
                  failures are uniform, grep-able, and NDEBUG-aware.
                  (static_assert and gtest's ASSERT_* are fine.)
  raw-random      No sequential RNG (rand/srand/drand48/lrand48,
                  std::random_device, std::mt19937 and friends) outside
                  src/util/rng.*; every simulation must be bit-reproducible
                  from a seed (see util/rng.h).
  raw-thread      No std::thread/std::jthread/std::async/pthread_create
                  outside src/util/thread_pool.*; ad-hoc threads bypass the
                  deterministic fan-out/ordered-fold discipline that keeps
                  parallel results bit-identical to serial ones.
                  (std::thread::id and std::this_thread are fine — they
                  observe threads, they don't spawn them.)
  raw-clock       No clock reads (steady/system/high_resolution_clock::now,
                  clock_gettime, gettimeofday, timespec_get) outside
                  src/util/trace.cc (prof::WallSeconds and the
                  ScopedTimer's thread CPU clock) and bench/
                  (wall-clock sweep footers). Wall clock in simulation or
                  protocol code would leak non-determinism into results
                  and traces; time through prof::WallSeconds (util/trace.h)
                  so profiling stays gated and auditable.
  perf-syscall    No perf_event_open / perf_event_attr / PERF_EVENT_IOC /
                  PERF_COUNT_ / raw syscall() / <linux/perf_event.h>
                  anywhere. Profiling reads wall clock and thread CPU time
                  through prof::ScopedTimer (util/trace.h), which needs no
                  counter privileges and so never reports a counter that
                  could not open as 0.
  const-cast      No const_cast or std::const_pointer_cast anywhere.
                  Scenario artifacts (radio graphs, traces, value sources)
                  are shared const across runs and sweep points by
                  core/scenario_cache.h; casting constness away is exactly
                  the mutation-of-shared-state bug the cache's determinism
                  contract forbids, so the escape hatch is banned tree-wide.
  fault-rng       No wsnq::Rng (or util/rng.h include) inside src/fault/;
                  fault decisions must be pure counter-based hashes of
                  (seed, run, round/tick, src, dst) through the FaultKey
                  helpers (src/fault/fault_key.h), never draws from a
                  sequential stream — a stream's draw order would differ
                  across thread schedules and break the bit-identical
                  fault-injection contract.
  serve-syscall   No socket/poll syscalls or socket headers outside
                  src/serve/; the simulation core, tools and tests stay
                  transport-free so the backend is testable without a
                  network.
  unordered-iter  No iteration over std::unordered_map/unordered_set in
                  fold/aggregate/report/export/serialize paths — the
                  iteration order is implementation-defined, so anything
                  it feeds that reaches output breaks the bit-identical
                  contract. The partial-wave fold path counts as output:
                  wave/replay/convergecast contexts (net/wave.h) replay
                  sends and debit energy straight into the Network, so
                  hash order there changes accounting bytes. Lookups
                  (find/count/emplace) are fine.
  fp-reduction    No floating-point accumulation (`+=` on a double/float)
                  inside a loop over an unordered container: FP addition
                  is not associative, so the sum depends on hash order —
                  in a partial-wave fold that also means the sum depends
                  on the subtree partition.
  layering        First-party includes must respect the layer DAG in
                  LAYER_ALLOWED. A core -> bench or net -> core include is
                  an error.
  test-coverage   Every .cc under src/ is referenced (via its header path,
                  e.g. "algo/hbc.h") by at least one test that is registered
                  with wsnq_test() in tests/CMakeLists.txt.
  include-guard   Every header uses the canonical guard derived from its
                  repo-relative path: WSNQ_<DIR>_<FILE>_H_.
  tracked-build   No generated build artifacts (build*/ trees, CMakeCache,
                  object files ...) are tracked by git.

Names, not spellings. raw-clock, raw-random, raw-thread and perf-syscall
match what a name *means*: each qualified name is expanded through the
file's typedef/using/namespace aliases (and its sibling header's) before it
is matched, so `using clk = std::chrono::steady_clock; clk::now()` is
caught although no banned spelling appears at the call site. Comments,
string literals and /* */ blocks never fire a rule. The allowlist is the
only exception mechanism; there is no inline suppression.

Corpus. `--selftest DIR` runs the expected-diagnostic corpus instead of the
tree. Each DIR/<rule>/ is a miniature repo-root overlay (src/..., tests/...,
bench/...) of true positives, false-positive bait and allowlist fixtures.
The driver runs that rule, plus every rule a marker in the overlay names,
over the overlay and compares the (path, line, rule) findings with the
markers:

    // lint-expect: <rule>          line-level finding expected HERE
    // lint-expect-file: <rule>     file-level finding (line 0) expected
    #  lint-expect-file: <rule>     same, CMake comment style

tracked-build reads the git index, so it is pinned on a scratch `git init`
repo instead. A rule no overlay runs fails the selftest.

Usage: wsnq_lint.py [--root REPO_ROOT] [--list-rules] [--selftest DIR]
Exit status: 0 when clean, 1 when any rule fires (or the corpus does not
match its markers), 2 on usage error.

Adding a rule: add an entry to RULES (a pattern, or a `check` function for
per-file logic, or a `tree` function for whole-tree logic) and an overlay
under tests/lint/corpus/<rule>/; docs/hardening.md describes the
conventions.
"""

import argparse
import functools
import os
import re
import subprocess
import sys
import tempfile
from typing import Callable, Dict, List, NamedTuple, Optional, Pattern, Tuple

# Directories scanned for C++ sources (relative to the repo root).
CXX_ROOTS = ("src", "tests", "tools", "bench", "examples")
CXX_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")

# The expected-diagnostic corpus violates the rules on purpose; only
# --selftest ever scans it.
CORPUS_DIR = "tests/lint"


class Finding(NamedTuple):
    path: str  # repo-relative, '/'-separated
    line: int  # 1-based; 0 when the finding is file-level
    rule: str
    message: str


def cxx_files(root: str):
    for top in CXX_ROOTS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            rel_dir = os.path.relpath(dirpath, root).replace(os.sep, "/")
            if rel_dir == CORPUS_DIR or rel_dir.startswith(CORPUS_DIR + "/"):
                continue
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    yield f"{rel_dir}/{name}"


def read_lines(path: str) -> List[str]:
    with open(path, encoding="utf-8") as f:
        return f.readlines()


def strip_line(line: str) -> str:
    """Removes string/char literals and // comments from one line, so the
    rules don't fire on prose or log text."""
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    line = re.sub(r"'(\\.|[^'\\])*'", "''", line)
    return line.split("//", 1)[0]


def strip_file(lines: List[str]) -> List[str]:
    """Per-line stripped source with /* */ block comments blanked too
    (line structure preserved)."""
    stripped = []
    in_block = False
    for raw in lines:
        if in_block:
            end = raw.find("*/")
            if end < 0:
                stripped.append("")
                continue
            raw = " " * (end + 2) + raw[end + 2:]
            in_block = False
        line = strip_line(raw)
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " + line[end + 2:]
        stripped.append(line)
    return stripped


# --- Per-file model -------------------------------------------------------

ALIAS_USING_RE = re.compile(
    r"\busing\s+([A-Za-z_]\w*)\s*=\s*([\w:]+(?:<[^;=]*>)?)\s*;")
ALIAS_TYPEDEF_RE = re.compile(
    r"\btypedef\s+([\w:<>,\s*&]+?)\s+([A-Za-z_]\w*)\s*;")
ALIAS_NAMESPACE_RE = re.compile(
    r"\bnamespace\s+([A-Za-z_]\w*)\s*=\s*([\w:]+)\s*;")
USING_DECL_RE = re.compile(r"\busing\s+((?:[\w]+::)+[\w]+)\s*;")
USING_NAMESPACE_RE = re.compile(r"\busing\s+namespace\s+([\w:]+)\s*;")
QUALIFIED_NAME_RE = re.compile(
    r"(?:::\s*)?[A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*")
INCLUDE_LINE_RE = re.compile(r"^\s*#\s*include\b")
FP_DECL_RE = re.compile(r"\b(?:double|float)\b\s*[&*]?\s*([A-Za-z_]\w*)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;()]*?):([^;]*)\)")
FUNC_SIG_RE = re.compile(
    r"([A-Za-z_~]\w*)\s*\([^()]*(?:\([^()]*\)[^()]*)*\)\s*"
    r"(?:const|noexcept|final|override|->\s*[\w:<>,\s]+|WSNQ_\w+\s*\([^()]*\))*\s*$")
NON_FUNC_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                     "sizeof", "alignof", "decltype"}


class Source:
    """One scanned file: raw lines, comment/literal-stripped lines, and the
    lexical-semantic model (aliases, declared types, function contexts)
    the name and iteration rules build on first use."""

    def __init__(self, root: str, rel: str):
        self.root = root
        self.rel = rel
        self.raw = read_lines(os.path.join(root, rel))
        self.code = strip_file(self.raw)

    @functools.cached_property
    def text(self) -> str:
        # Declarations of the sibling header are visible too, so a .cc that
        # iterates a member sees the member's unordered type and aliases.
        # Declarations only — the header's own lines are scanned as its own
        # file.
        extra = ""
        stem, ext = os.path.splitext(self.rel)
        if ext in (".cc", ".cpp"):
            for header_ext in (".h", ".hpp"):
                header = os.path.join(self.root, stem + header_ext)
                if os.path.isfile(header):
                    extra = "\n".join(strip_file(read_lines(header)))
                    break
        return "\n".join(self.code) + "\n" + extra

    @functools.cached_property
    def aliases(self) -> Dict[str, str]:
        aliases = {}
        for name, target in ALIAS_USING_RE.findall(self.text):
            aliases[name] = re.sub(r"\s+", "", target)
        for target, name in ALIAS_TYPEDEF_RE.findall(self.text):
            aliases[name] = re.sub(r"\s+", "", target.strip())
        for name, target in ALIAS_NAMESPACE_RE.findall(self.text):
            aliases[name] = re.sub(r"\s+", "", target)
        for qualified in USING_DECL_RE.findall(self.text):
            aliases[qualified.rsplit("::", 1)[1]] = qualified
        return aliases

    @functools.cached_property
    def using_namespaces(self) -> List[str]:
        # Optimistic "std": catches unqualified steady_clock::now even
        # without the using-directive, and no first-party name collides
        # with the banned ones.
        return ["std"] + USING_NAMESPACE_RE.findall(self.text)

    def resolve(self, token: str) -> str:
        """Expands the leading segment through the alias map (bounded)."""
        name = re.sub(r"\s+", "", token).lstrip(":")
        for _ in range(8):
            head, sep, tail = name.partition("::")
            expansion = self.aliases.get(head)
            if expansion is None or expansion == name:
                break
            name = expansion + (sep + tail if sep else "")
            if "<" in name:  # template alias: keep the template head only
                name = name.split("<", 1)[0]
        return name

    @functools.cached_property
    def names(self) -> List[List[Tuple[List[str], bool]]]:
        """Per line: (candidate resolved names, is-called) for each
        qualified name. Candidates are the alias-resolved name and that
        name under each using-namespace. #include lines carry none: the
        <thread> header is not a thread spawn."""
        per_line = []
        for line in self.code:
            found = []
            if not INCLUDE_LINE_RE.match(line):
                for m in QUALIFIED_NAME_RE.finditer(line):
                    resolved = self.resolve(m.group(0))
                    if not resolved:
                        continue
                    candidates = [resolved] + [
                        f"{ns}::{resolved}" for ns in self.using_namespaces]
                    found.append((candidates,
                                  bool(re.match(r"\s*\(", line[m.end():]))))
            per_line.append(found)
        return per_line

    def _template_decl_names(self, marker: str) -> set:
        """Identifiers declared with a type whose spelling contains
        `marker<...>` (balanced angle brackets, nested templates OK)."""
        names = set()
        text = self.text
        pos = 0
        while True:
            start = text.find(marker + "<", pos)
            if start < 0:
                break
            i = start + len(marker)
            depth = 0
            while i < len(text):
                if text[i] == "<":
                    depth += 1
                elif text[i] == ">":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            m = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)\s*[;={(,)]",
                         text[i + 1:i + 120])
            if m:
                names.add(m.group(1))
            pos = i + 1
        return names

    @functools.cached_property
    def unordered_vars(self) -> set:
        found = set()
        for marker in ("unordered_map", "unordered_set"):
            found |= self._template_decl_names(marker)
        # Alias-typed declarations: `using NodeMap = std::unordered_map<..>;
        # NodeMap index_;`
        for name, target in self.aliases.items():
            if "unordered_map" in target or "unordered_set" in target:
                for m in re.finditer(
                        r"\b%s\b\s*[&*]?\s+([A-Za-z_]\w*)\s*[;={(]"
                        % re.escape(name), self.text):
                    found.add(m.group(1))
        return found

    def function_contexts(self) -> List[Optional[str]]:
        """Per-line innermost *named* function context (None outside)."""
        contexts: List[Optional[str]] = []
        stack: List[Tuple[Optional[str], int]] = []  # (name, depth-after-{)
        depth = 0
        statement = ""  # text since the last ; { }
        for line in self.code:
            for ch in line:
                if ch == "{":
                    name = None
                    sig = FUNC_SIG_RE.search(statement.strip())
                    if sig and sig.group(1) not in NON_FUNC_KEYWORDS:
                        name = sig.group(1)
                    depth += 1
                    stack.append((name, depth))
                    statement = ""
                elif ch == "}":
                    depth -= 1
                    while stack and stack[-1][1] > depth:
                        stack.pop()
                    statement = ""
                elif ch == ";":
                    statement = ""
                else:
                    statement += ch
            statement += " "
            named = next((n for n, _ in reversed(stack) if n), None)
            contexts.append(named)
        return contexts

    @functools.cached_property
    def iteration_findings(self) -> List[Tuple[int, str, str]]:
        """(line, rule, message) for unordered-iter and fp-reduction."""
        if not self.unordered_vars:
            return []
        findings = []
        contexts = self.function_contexts()
        fp_vars = set(FP_DECL_RE.findall(self.text))
        depth = 0
        loop_stack: List[int] = []  # depths of open unordered-range-for bodies
        pending_loop = False
        for i, line in enumerate(self.code, start=1):
            context = contexts[i - 1]
            in_output_path = context is not None and \
                OUTPUT_CONTEXT_RE.search(context)
            for m in RANGE_FOR_RE.finditer(line):
                base = base_identifier(m.group(2))
                if base in self.unordered_vars:
                    pending_loop = True
                    if in_output_path:
                        findings.append((
                            i, "unordered-iter",
                            f"iteration over unordered container '{base}' "
                            f"in output path '{context}': hash order is "
                            "implementation-defined; use std::map or sort "
                            "before emitting"))
            for var in self.unordered_vars:
                if re.search(r"\b%s\s*\.\s*c?begin\s*\(" % re.escape(var),
                             line) and in_output_path:
                    findings.append((
                        i, "unordered-iter",
                        f"iterator walk over unordered container '{var}' "
                        f"in output path '{context}': hash order is "
                        "implementation-defined; use std::map or sort "
                        "before emitting"))
            if loop_stack:
                for m in re.finditer(r"([A-Za-z_]\w*)\s*\+=", line):
                    if m.group(1) in fp_vars:
                        findings.append((
                            i, "fp-reduction",
                            f"'{m.group(1)} +=' accumulates floating point "
                            "in unordered iteration order; FP addition is "
                            "not associative, so the sum depends on hash "
                            "order — fold from an ordered container "
                            "instead"))
            for ch in line:
                if ch == "{":
                    depth += 1
                    if pending_loop:
                        loop_stack.append(depth)
                        pending_loop = False
                elif ch == "}":
                    while loop_stack and loop_stack[-1] >= depth:
                        loop_stack.pop()
                    depth -= 1
        return findings


def base_identifier(expr: str) -> Optional[str]:
    """Trailing identifier of a range expression (`this->totals_`,
    `cache.entries_` -> entries_); None when the expr ends in a call."""
    expr = expr.strip()
    if expr.endswith(")"):
        return None
    m = re.search(r"([A-Za-z_]\w*)\s*$", expr)
    return m.group(1) if m else None


# --- Per-file and whole-tree checks ---------------------------------------

LineFindings = List[Tuple[int, str]]  # (line, message)

# Function-name contexts where unordered iteration order can reach output
# (fold/aggregate/report/export/serialize paths, plus the partial-wave
# fold path of net/wave.h: part replays and fold-vertex processing feed
# Network accounting directly, so wave/replay/convergecast contexts are
# output paths too).
OUTPUT_CONTEXT_RE = re.compile(
    r"(?i)(fold|merge|aggregat|report|export|serial|write|rows|print|csv|"
    r"json|dump|emit|render|encode|wave|replay|convergecast)")


def iteration_check(rule: str) -> Callable[[Source], LineFindings]:
    def check(src: Source) -> LineFindings:
        return [(line, message)
                for line, r, message in src.iteration_findings if r == rule]
    return check


# Layer DAG: which first-party include layers each source layer may use.
SRC_LAYERS = ("util", "perf", "net", "data", "fault", "sketch", "algo",
              "core", "mc", "serve")
LAYER_ALLOWED: Dict[str, set] = {
    "util": {"util"},
    # The measurement layer sits beside the stack: nothing under src/
    # except serve may include perf/ (simulation results must not depend
    # on how they are measured). bench/tests/tools reach it via the
    # top-level rule below.
    "perf": {"perf", "util"},
    "net": {"net", "util"},
    "data": {"data", "net", "util"},
    "fault": {"fault", "net", "util"},
    # algo and sketch are one layer group (q-digest is both an algorithm
    # and a sketch): mutual includes are legal.
    "sketch": {"sketch", "algo", "net", "util"},
    "algo": {"algo", "sketch", "net", "util"},
    "core": {"core", "algo", "sketch", "data", "fault", "net", "util"},
    # The model checker sits on top of everything it checks; nothing under
    # src/ may include mc/ back (the checker must observe, never shape, the
    # production stack).
    "mc": {"mc", "core", "algo", "sketch", "data", "fault", "net", "util"},
    # The serving daemon also sits on top of the stack: it drives the
    # simulator through core/scenario + algo/multi_quantile, and nothing
    # under src/ may include serve/ back (the simulation must stay
    # transport-free; sockets are a serve-only concern, see the
    # serve-syscall rule).
    "serve": {"serve", "core", "algo", "sketch", "data", "fault", "net",
              "util", "perf"},
}
for _top in ("tests", "tools", "bench", "examples"):
    LAYER_ALLOWED[_top] = set(SRC_LAYERS) | {_top}

QUOTED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def check_layering(src: Source) -> LineFindings:
    parts = src.rel.split("/")
    layer = parts[1] if parts[0] == "src" and len(parts) > 1 else parts[0]
    allowed = LAYER_ALLOWED.get(layer)
    if allowed is None:
        return []  # not a layered location (e.g. a stray top-level file)
    findings = []
    # Raw lines: stripping would blank the quoted include path.
    for i, raw in enumerate(src.raw, start=1):
        m = QUOTED_INCLUDE_RE.match(raw)
        if not m:
            continue
        target = m.group(1).split("/", 1)[0]
        if target in LAYER_ALLOWED and target not in allowed:
            findings.append((
                i, f"illegal include edge {layer} -> {target}; the layer "
                   f"DAG allows {layer} -> {{{', '.join(sorted(allowed))}}}"))
    return findings


GUARD_USE_RE = re.compile(r"^#ifndef\s+([A-Za-z0-9_]+)\s*$", re.MULTILINE)


def expected_guard(rel: str) -> str:
    parts = os.path.splitext(rel)[0].split("/")
    if parts[0] == "src":
        parts = parts[1:]  # src/ is the include root: src/algo/hbc.h -> ALGO_HBC
    return "WSNQ_" + "_".join(p.upper() for p in parts) + "_H_"


def check_include_guard(src: Source) -> LineFindings:
    if not src.rel.endswith((".h", ".hpp")):
        return []
    text = "".join(src.raw)
    want = expected_guard(src.rel)
    match = GUARD_USE_RE.search(text)
    got = match.group(1) if match else None
    if got == want and f"#define {want}" in text:
        return []
    return [(0, f"include guard must be {want} (found "
                f"{got or 'no #ifndef guard'})")]


def check_test_coverage(root: str, sources: List[Source]) -> List[Finding]:
    rule = "test-coverage"
    cmake_path = os.path.join(root, "tests", "CMakeLists.txt")
    if not os.path.isfile(cmake_path):
        return [Finding("tests/CMakeLists.txt", 0, rule,
                        "missing tests/CMakeLists.txt")]
    with open(cmake_path, encoding="utf-8") as f:
        registered = re.findall(r"wsnq_test\(\s*([A-Za-z0-9_]+)\s*\)",
                                f.read())
    findings = []
    tests_text = ""
    for name in registered:
        test_path = os.path.join(root, "tests", name + ".cc")
        if not os.path.isfile(test_path):
            findings.append(Finding(
                "tests/CMakeLists.txt", 0, rule,
                f"registered test '{name}' has no tests/{name}.cc"))
            continue
        tests_text += "".join(read_lines(test_path))
    for src in sources:
        if not (src.rel.startswith("src/") and src.rel.endswith(".cc")):
            continue
        header_ref = src.rel[len("src/"):-len(".cc")] + ".h"
        if header_ref not in tests_text:
            findings.append(Finding(
                src.rel, 0, rule,
                f"no registered test references '{header_ref}'; add or "
                "extend a test in tests/ and register it with wsnq_test()"))
    return findings


TRACKED_BUILD_RE = re.compile(
    r"^(build[^/]*|cmake-build-[^/]*|out)/"
    r"|(^|/)(CMakeCache\.txt|CTestTestfile\.cmake|cmake_install\.cmake)$"
    r"|(^|/)CMakeFiles/"
    r"|\.(o|obj|a|so|dylib)$")


def check_tracked_build(root: str, sources: List[Source]) -> List[Finding]:
    del sources  # reads the git index, not file contents
    try:
        out = subprocess.run(
            ["git", "-C", root, "ls-files"],
            capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return []  # not a git checkout (e.g. a tarball): nothing to enforce
    return [Finding(tracked, 0, "tracked-build",
                    "generated build artifact is tracked by git; "
                    "`git rm --cached` it (see .gitignore)")
            for tracked in out.splitlines() if TRACKED_BUILD_RE.search(tracked)]


# --- The rule table -------------------------------------------------------

class Rule(NamedTuple):
    message: str = ""
    allow: Tuple[str, ...] = ()  # sanctioned files, or dir/ prefixes
    within: str = ""  # when set, the rule checks only paths under this dir/
    spelled: Optional[Pattern] = None  # searched in each stripped line
    included: Optional[Pattern] = None  # searched in the raw line, sans //
    # Matched (re.search) against each alias-resolved qualified name, or —
    # for `calls` — against each one immediately invoked.
    refs: Optional[Pattern] = None
    calls: Optional[Pattern] = None
    check: Optional[Callable[[Source], LineFindings]] = None
    tree: Optional[Callable[[str, List[Source]], List[Finding]]] = None


RULES: Dict[str, Rule] = {
    "raw-assert": Rule(
        "use WSNQ_CHECK/WSNQ_DCHECK (util/check.h) instead of raw "
        "assert()/abort()",
        allow=("src/util/check.h",),  # the one sanctioned abort() site
        spelled=re.compile(r"(?<![A-Za-z0-9_])(assert|abort)\s*\(")),
    "raw-random": Rule(
        "use the deterministic wsnq::Rng (util/rng.h); sequential RNGs "
        "and std::random_device break reproducibility from the seed",
        allow=("src/util/rng.h", "src/util/rng.cc"),
        refs=re.compile(r"random_device|mt19937|\b(minstd_rand0?|"
                        r"default_random_engine|ranlux24|ranlux48|knuth_b)$"),
        calls=re.compile(r"\b(s?rand|[dl]rand48)$")),
    # std::thread::id and std::this_thread resolve to other names, so
    # observing threads never fires.
    "raw-thread": Rule(
        "use wsnq::ThreadPool (util/thread_pool.h); raw std::thread/"
        "std::async/pthread_create bypass the deterministic "
        "fan-out/ordered-fold discipline",
        allow=("src/util/thread_pool.h", "src/util/thread_pool.cc"),
        refs=re.compile(r"^std::(j?thread|async)$"),
        calls=re.compile(r"^pthread_create$")),
    "raw-clock": Rule(
        "time through prof::WallSeconds / prof::ScopedTimer "
        "(util/trace.h); raw clock reads leak wall-clock non-determinism "
        "into simulation code",
        allow=("src/util/trace.cc", "bench/"),
        refs=re.compile(r"\b(steady|system|high_resolution)_clock::now$"),
        calls=re.compile(
            r"^(std::)?(clock_gettime|gettimeofday|timespec_get)$")),
    # No file is allowlisted: nothing in the tree opens counters or makes a
    # raw syscall().
    "perf-syscall": Rule(
        "profile through prof::ScopedTimer (util/trace.h), which reads wall "
        "clock and thread CPU time; perf_event counters and raw syscall() "
        "are banned everywhere",
        included=re.compile(r'#\s*include\s*[<"]linux/perf_event\.h[>"]'),
        refs=re.compile(
            r"perf_event_open|perf_event_attr|PERF_EVENT_IOC|PERF_COUNT_"),
        calls=re.compile(r"^syscall$")),
    "const-cast": Rule(
        "const_cast/const_pointer_cast would let code mutate scenario "
        "artifacts shared const across runs (core/scenario_cache.h); "
        "restructure so mutable state is per-run instead",
        spelled=re.compile(
            r"(?<![A-Za-z0-9_])(const_cast|const_pointer_cast)\s*<")),
    # The whole-word Rng match keeps FaultRng-style names quiet. The
    # include form is matched on the raw line: a quoted include path is a
    # string literal, so the stripped text never contains it.
    "fault-rng": Rule(
        "fault decisions must go through the counter-based FaultBits/"
        "FaultUniform/FaultBernoulli helpers (fault/fault_key.h), not a "
        "sequential wsnq::Rng stream — draw order would break "
        "bit-identical parallel fault injection",
        allow=("src/fault/fault_key.h",),
        within="src/fault/",
        spelled=re.compile(r"(?<![A-Za-z0-9_])Rng(?![A-Za-z0-9_])"),
        included=re.compile(r'#\s*include\s*[<"]util/rng\.h[>"]')),
    "serve-syscall": Rule(
        "socket/poll syscalls are confined to src/serve/ (serve/sockets.h, "
        "serve/server.h, serve/client.h) — the simulation core, tools, and "
        "tests stay transport-free so the backend is testable without a "
        "network",
        allow=("src/serve/",),
        spelled=re.compile(
            r"\b(socket|bind|listen|accept4?|connect|poll|ppoll|select|"
            r"epoll_create1?|epoll_ctl|epoll_wait|recv|recvmsg|recvfrom|"
            r"send|sendmsg|sendto|setsockopt|getsockopt|getsockname|"
            r"shutdown)\s*\("),
        included=re.compile(
            r'#\s*include\s*[<"](sys/socket\.h|sys/epoll\.h|sys/select\.h|'
            r'poll\.h|netinet/[a-z_]+\.h|arpa/inet\.h)[>"]')),
    "unordered-iter": Rule(check=iteration_check("unordered-iter")),
    "fp-reduction": Rule(check=iteration_check("fp-reduction")),
    "layering": Rule(check=check_layering),
    "test-coverage": Rule(tree=check_test_coverage),
    "include-guard": Rule(check=check_include_guard),
    "tracked-build": Rule(tree=check_tracked_build),
}


def applies(rule: Rule, rel: str) -> bool:
    if rule.within and not rel.startswith(rule.within):
        return False
    return not any(rel.startswith(entry) if entry.endswith("/")
                   else rel == entry for entry in rule.allow)


def name_hit(rule: Rule, names: List[Tuple[List[str], bool]]) -> bool:
    return any((rule.refs and rule.refs.search(name)) or
               (is_call and rule.calls and rule.calls.search(name))
               for candidates, is_call in names for name in candidates)


def pattern_findings(rule: Rule, src: Source) -> LineFindings:
    by_name = rule.refs is not None or rule.calls is not None
    findings = []
    for i, (raw, code) in enumerate(zip(src.raw, src.code), start=1):
        if ((rule.spelled and rule.spelled.search(code)) or
                (rule.included and
                 rule.included.search(raw.split("//", 1)[0])) or
                (by_name and name_hit(rule, src.names[i - 1]))):
            findings.append((i, rule.message))
    return findings


def lint(root: str, rule_names) -> List[Finding]:
    sources = [Source(root, rel) for rel in cxx_files(root)]
    findings = []
    for name in rule_names:
        rule = RULES[name]
        if rule.tree:
            findings.extend(rule.tree(root, sources))
            continue
        for src in sources:
            if not applies(rule, src.rel):
                continue
            found = rule.check(src) if rule.check else \
                pattern_findings(rule, src)
            findings.extend(Finding(src.rel, line, name, message)
                            for line, message in found)
    return sorted(set(findings))


# --- Expected-diagnostic corpus -------------------------------------------

# Matches anywhere in a line so markers can trail prose inside a comment.
EXPECT_RE = re.compile(r"lint-expect(-file)?:\s*([a-z][a-z\-]*)")


def expectations(overlay: str):
    """Collect (relpath, line, rule) tuples from marker comments."""
    expected = set()
    for dirpath, _, filenames in os.walk(overlay):
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, overlay).replace(os.sep, "/")
            for lineno, line in enumerate(read_lines(path), start=1):
                for m in EXPECT_RE.finditer(line):
                    expected.add((rel, 0 if m.group(1) else lineno,
                                  m.group(2)))
    return expected


def report(label: str, expected, found) -> bool:
    missing = sorted(expected - found)
    unexpected = sorted(found - expected)
    for path, line, rule in missing:
        print(f"{label}: MISSING    {path}:{line} [{rule}]")
    for path, line, rule in unexpected:
        print(f"{label}: UNEXPECTED {path}:{line} [{rule}]")
    if missing or unexpected:
        return False
    print(f"{label}: ok ({len(expected)} expected finding(s))")
    return True


def selftest_tracked_build() -> bool:
    """tracked-build inspects the git index, not file contents: staged
    build artifacts in a scratch repo must be exactly its findings, and a
    repo with only sources staged must be clean."""
    rule = "tracked-build"
    with tempfile.TemporaryDirectory(prefix="wsnq-lint-corpus-") as tmp:
        subprocess.run(["git", "init", "-q", tmp], check=True)
        artifacts = ["build/CMakeCache.txt", "src/quantile.o"]
        clean = ["src/quantile.cc", ".gitignore"]
        for rel in artifacts + clean:
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write("// corpus fixture\n")
        subprocess.run(["git", "-C", tmp, "add", "-f", "-A"], check=True)
        found = {f[:3] for f in check_tracked_build(tmp, [])}
        ok = report(rule, {(rel, 0, rule) for rel in artifacts}, found)
        subprocess.run(["git", "-C", tmp, "rm", "-q", "--cached", "-r", "."],
                       check=True)
        subprocess.run(["git", "-C", tmp, "add"] + clean, check=True)
        residue = check_tracked_build(tmp, [])
        if residue:
            print(f"{rule}: UNEXPECTED findings in clean repo: {residue}")
            ok = False
    return ok


def selftest(corpus: str) -> int:
    ok = True
    covered = {"tracked-build"}
    for overlay in sorted(os.listdir(corpus)):
        root = os.path.join(corpus, overlay)
        if not os.path.isdir(root):
            continue
        expected = expectations(root)
        rules = {overlay} | {rule for _, _, rule in expected}
        unknown = sorted(rules - RULES.keys())
        if unknown:
            print(f"{overlay}: corpus names unknown rules: {unknown}")
            ok = False
            continue
        found = {f[:3] for f in lint(root, sorted(rules))}
        ok = report(overlay, expected, found) and ok
        covered |= rules
    ok = selftest_tracked_build() and ok
    gap = sorted(RULES.keys() - covered)
    if gap:
        print(f"corpus gap: rules with no corpus coverage: {gap}")
        ok = False
    if not ok:
        print("wsnq-lint selftest: FAIL", file=sys.stderr)
        return 1
    print(f"wsnq-lint selftest: ok ({len(covered)} rules pinned)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))),
        help="repository root (default: parent of this script)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    parser.add_argument("--selftest", metavar="DIR",
                        help="check the expected-diagnostic corpus under "
                             "DIR instead of scanning the tree")
    args = parser.parse_args()

    if args.list_rules:
        print("\n".join(RULES))
        return 0

    if args.selftest:
        if not os.path.isdir(args.selftest):
            print(f"wsnq-lint: no such corpus dir: {args.selftest}",
                  file=sys.stderr)
            return 2
        return selftest(args.selftest)

    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"wsnq-lint: {args.root} does not look like the repo root",
              file=sys.stderr)
        return 2

    findings = lint(args.root, RULES)
    for f in findings:
        location = f"{f.path}:{f.line}" if f.line else f.path
        print(f"{location}: [{f.rule}] {f.message}")
    if findings:
        print(f"wsnq-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"wsnq-lint: clean ({len(RULES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

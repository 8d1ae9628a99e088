"""Pure logic of the benchmark: statistics, failure accounting, span
analysis and the mapping from the raw measurements of wsnq_perfbench to
the metrics named in BENCHMARK.json. run.py does the building, running and
printing; everything here is a function of its arguments and is covered by
test_benchlib.py.
"""

import bisect
import math
import re
import statistics

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TAIL_BEYOND = 10
# Layers with spans inside the measured phase. `fault` runs inside
# RunSimulation, and net and data construction inside BuildScenario; their
# spans come only from the probes after the measured phase.
LAYERS = ("core", "algo", "serve", "bench")
PROTOCOLS = ("TAG", "POS", "HBC", "IQ", "LCLL-H", "LCLL-S")
# End-to-end figures printed in the report but not gated by BENCHMARK.json:
# their run-to-run spread on a small shared VM exceeds the largest bound.
REPORT_ONLY_UNITS = {"serve.ack_p50_ms": "ms", "serve.round_tail_ms": "ms",
                     "serve.ack_tail_ms": "ms",
                     "sim_node_rounds_per_wall_s": "1/s"}


def validate_metric_name(name):
    """Returns `name` if it is a valid metric name, else raises ValueError."""
    if not isinstance(name, str) or not METRIC_NAME.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def median(samples):
    """Median of `samples`, or None when there are none."""
    samples = list(samples)
    return statistics.median(samples) if samples else None


class Tail:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""

    def __init__(self, value, percentile, count):
        self.value = value
        self.percentile = percentile
        self.count = count

    def __repr__(self):
        return f"Tail(value={self.value}, p{self.percentile:.2f}, n={self.count})"


def tail(samples, beyond=TAIL_BEYOND):
    """Tail of `samples`: the sorted sample with exactly `beyond` samples
    after it, reported with its percentile (share of samples at or below
    its position) and the sample count. None when there are too few
    samples for the rule to name any percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < beyond + 1:
        return None
    index = n - beyond - 1
    return Tail(ordered[index], 100.0 * (index + 1) / n, n)


def open_loop_latencies_ms(records):
    """Latency of open-loop requests, measured from when each was *due*.

    `records` holds (scheduled, sent, completed, ok) tuples in seconds;
    completed < 0 or ok false marks a request that never succeeded, which
    counts as missing every latency limit (infinite latency). The send
    time is deliberately ignored: a generator that ran late still owes
    the wait it imposed on the request."""
    out = []
    for scheduled, _sent, completed, ok in records:
        if not ok or completed < 0:
            out.append(math.inf)
        else:
            out.append((completed - scheduled) * 1e3)
    return out


def generator_lateness_ms(records):
    """How late the open-loop generator sent each request."""
    return [(sent - scheduled) * 1e3 for scheduled, sent, _c, _ok in records]


class Failures:
    """Failures counted against attempts, by kind."""

    def __init__(self):
        self.kinds = {}

    def add(self, kind, attempted, failed):
        if attempted < 0 or failed < 0:
            raise ValueError("counts must be non-negative")
        a, f = self.kinds.get(kind, (0, 0))
        self.kinds[kind] = (a + int(attempted), f + int(failed))

    @property
    def attempted(self):
        return sum(a for a, _ in self.kinds.values())

    @property
    def failed(self):
        return sum(f for _, f in self.kinds.values())

    def share(self):
        """Failed share of attempts; None when nothing was attempted."""
        return self.failed / self.attempted if self.attempted else None


def nullable(value):
    """A reading, or None when the machine could not provide it. Zero and
    negative sentinels from probes that failed are not readings."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value if value > 0 else None
    return value if value != "" else None


# --- Spans --------------------------------------------------------------


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def clip(interval, window):
    start, end = interval
    return (max(start, window[0]), min(end, window[1]))


def layer_of(name):
    return name.split(".", 1)[0]


def busy(span):
    """The part of `span` charged to its layer. A row is (name, parent,
    thread, start, end[, cpu]); a span that recorded its thread CPU time
    (cpu >= 0) wrapped a call that waits first and works after, so only
    its last `cpu` seconds count, the wait before them does not."""
    start, end = span[3], span[4]
    if len(span) > 5 and span[5] >= 0:
        start = max(start, end - span[5])
    return (start, end)


def _window_parts(interval, windows, starts):
    """`interval` clipped to each of the sorted, disjoint `windows` it
    overlaps (`starts` holds the windows' start times)."""
    i = max(0, bisect.bisect_right(starts, interval[0]) - 1)
    while i < len(windows) and windows[i][0] < interval[1]:
        part = clip(interval, windows[i])
        if part[1] > part[0]:
            yield part
        i += 1


def self_times(spans, windows=None):
    """Self time per layer: each span's duration minus the part of it its
    direct child spans cover, summed by layer. `spans` holds
    (name, parent_index, thread, start, end[, cpu]) rows, each charged
    for its busy() part; with `windows`, only the parts inside those
    (start, end) intervals count."""
    children = {}
    for i, span in enumerate(spans):
        if span[1] >= 0:
            children.setdefault(span[1], []).append(i)
    windows = sorted(windows) if windows is not None else None
    starts = [w[0] for w in windows] if windows is not None else None
    out = {}
    for i, span in enumerate(spans):
        name = span[0]
        kids = [busy(spans[k]) for k in children.get(i, [])]
        parts = ([busy(span)] if windows is None else
                 _window_parts(busy(span), windows, starts))
        own = 0.0
        for part in parts:
            covered = union_length(clip(k, part) for k in kids)
            own += (part[1] - part[0]) - covered
        out[layer_of(name)] = out.get(layer_of(name), 0.0) + own
    return out


def coverage(spans, windows):
    """Share of the `windows` intervals during which at least one span of a
    program layer (not the benchmark's own `bench.*` spans) was busy."""
    windows = sorted(windows)
    starts = [w[0] for w in windows]
    total = union_length(windows)
    if total <= 0:
        return None
    inside = []
    for span in spans:
        if layer_of(span[0]) != "bench":
            inside.extend(_window_parts(busy(span), windows, starts))
    return union_length(inside) / total


def span_durations(spans, name):
    return [s[4] - s[3] for s in spans if s[0] == name]


# --- Metrics from raw measurements --------------------------------------


def sim_end_to_end(raw, traced=False):
    """End-to-end metrics of a simulator workload, from the untraced (or,
    with traced=True, the traced) units of work. Returns (values, tails).
    On the simulator a "round" is one answered round of one protocol
    replay: serve.round_* are host milliseconds per answered round, and
    serve.capacity_rounds_per_s is answered rounds of all protocols per
    host second. Host time here is the process's CPU time (wave threads
    included), which steal time on a shared VM does not inflate; the
    wall-clock throughput is reported as sim_node_rounds_per_wall_s.

    Rows: setup (traced, wall s); iterations (traced, wall s, node rounds,
    answered rounds, CPU s); calls (traced, protocol, wall s, node rounds,
    rounds, CPU s)."""
    def pick(rows):
        return [r for r in rows if bool(r[0]) == bool(traced)]

    setups = [s for _t, s in pick(raw["setup"])]
    iters = pick(raw["iterations"])
    round_ms = [c[5] / c[4] * 1e3 for c in pick(raw["calls"])]
    tails = {"serve.round_tail_ms": tail(round_ms)}
    values = {
        "setup_s": median(setups),
        "sim_node_rounds_per_s": median(i[2] / i[4] for i in iters),
        "sim_node_rounds_per_wall_s": median(i[2] / i[1] for i in iters),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "sim_hotspot_mj_per_round": sum(r["hotspot_mj"] for r in raw["results"]),
        "sim_packets_per_round": sum(r["packets"] for r in raw["results"]),
        "serve.round_p50_ms": median(round_ms),
        "serve.capacity_rounds_per_s": median(i[3] / i[4] for i in iters),
    }
    return values, tails


def serve_round_latencies_ms(rounds):
    """Paced-round latency: scheduled tick to the arrival of the round's
    last ANSWER; a round missing pushes never completed (infinite)."""
    out = []
    for scheduled, last_arrival, expected, received, *_ in rounds:
        if expected == 0:
            continue
        if received < expected or last_arrival < 0:
            out.append(math.inf)
        else:
            out.append((last_arrival - scheduled) * 1e3)
    return out


def capacity_rounds_per_s(capacity_rows):
    seconds = sum(s for _t, s in capacity_rows)
    return len(capacity_rows) / seconds if seconds > 0 else None


def serve_end_to_end(raw, traced=False):
    """End-to-end metrics of serve-churn. Returns (values, tails)."""
    flag = bool(traced)
    setups = [s for t, s in raw["setup"] if t == flag]
    rounds = [r for r in raw["rounds"] if r[4] == flag]
    churn = [(c[1], c[2], c[3], c[5]) for c in raw["churn"] if c[4] == flag]
    capacity = [c for c in raw["capacity"] if c[0] == flag]
    round_ms = serve_round_latencies_ms(rounds)
    ack_ms = open_loop_latencies_ms(churn)
    cap = capacity_rounds_per_s(capacity)
    tails = {
        "serve.round_tail_ms": tail(round_ms),
        "serve.ack_tail_ms": tail(ack_ms),
    }
    values = {
        "setup_s": median(setups),
        "sim_node_rounds_per_s": cap * raw["stream_vertices"] if cap else None,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "sim_hotspot_mj_per_round": raw["replay_hotspot_mj"],
        "sim_packets_per_round": raw["replay_packets"],
        "serve.round_p50_ms": median(round_ms),
        "serve.ack_p50_ms": median(ack_ms),
        "serve.capacity_rounds_per_s": cap,
    }
    return values, tails


def end_to_end(raw, traced=False):
    if "iterations" in raw:
        return sim_end_to_end(raw, traced)
    return serve_end_to_end(raw, traced)


def failures(raw):
    """Failure accounting of one workload run."""
    f = Failures()
    checks = raw["checks"]
    if "iterations" in raw:
        f.add("oracle_mismatch", checks["rounds_checked"],
              checks["oracle_mismatches"])
        replays = len(raw["calls"])
        f.add("nondeterministic_replay", replays,
              checks["nondeterministic_replays"])
        f.add("arrangement_mismatch", checks["arrangement_replays"],
              checks["arrangement_mismatches"])
        return f
    acked = (checks["subscribes_ok"] + checks["unsubscribes_ok"] +
             checks["requests_refused"])
    f.add("request_refused", checks["requests_sent"],
          checks["requests_refused"])
    f.add("request_unanswered", 0, max(0, checks["requests_sent"] - acked))
    f.add("push_missing", checks["pushes_expected"],
          checks["pushes_missing"])
    f.add("push_surplus", 0, checks["pushes_surplus"])
    f.add("push_incorrect", 0, checks["pushes_incorrect"])
    f.add("replay_mismatch", checks["replay_answers"],
          checks["replay_mismatches"])
    f.add("connection_closed", 0, checks["closed_connections"])
    f.add("stalled", 1, 1 if checks["stalled"] else 0)
    return f


def traced_windows(raw):
    """The intervals of traced work: traced iterations (simulator) or
    traced rounds (daemon)."""
    if "iterations" in raw:
        return [(s[3], s[4]) for s in raw["spans"]
                if s[0] == "bench.iteration"]
    return [(w[0], w[1]) for w in raw["traced_windows"]]


def per_layer(raw):
    """Per-layer metrics of a traced run: (values, not_exercised names)."""
    spans = raw["spans"]
    layer = raw.get("layer", {})
    sim = "iterations" in raw
    out = {}
    zero = set()

    def put(name, value):
        if value is None:
            zero.add(name)
            value = 0
        out[name] = value

    # core
    put("core.build_scenario_s", median(span_durations(spans, "core.cache_prepare")))
    put("core.scenario_cache_hits", layer.get("core.scenario_cache_hits"))
    put("core.scenario_cache_misses", layer.get("core.scenario_cache_misses"))
    put("core.materialize_values_s",
        median(span_durations(spans, "core.materialize_values")))
    put("core.oracle_sort_s", median(span_durations(spans, "core.oracle_sort")))
    # net
    for key in ("net.placement_s", "net.radio_graph_s", "net.routing_tree_s",
                "data.pressure_trace_s", "data.som_s"):
        put(key, layer.get(key) or None)
    put("net.radio_edges", layer.get("net.radio_edges"))
    put("net.tree_depth", layer.get("net.tree_depth"))
    results = {r["name"]: r for r in raw.get("results", [])}
    put("net.packets_total", sum(r["net_packets"] for r in results.values()) or None)
    put("net.convergecasts_total",
        sum(r["net_convergecasts"] for r in results.values()) or None)
    put("net.floods_total", sum(r["net_floods"] for r in results.values()) or None)
    # algo
    traced_calls = [c for c in raw.get("calls", []) if c[0]]
    for index, proto in enumerate(PROTOCOLS):
        mine = [c for c in traced_calls if int(c[1]) == index]
        seconds = sum(c[2] for c in mine)
        cpu_seconds = sum(c[5] for c in mine)
        node_rounds = sum(c[3] for c in mine)
        r = results.get(proto)
        put(f"algo.{proto}.run_s", seconds / len(mine) if mine else None)
        put(f"algo.{proto}.ns_per_node_round",
            cpu_seconds / node_rounds * 1e9 if node_rounds else None)
        put(f"algo.{proto}.packets_per_round", r["packets"] if r else None)
        put(f"algo.{proto}.refinements_per_round",
            r["refinements"] if r else None)
        put(f"algo.{proto}.hotspot_mj", r["hotspot_mj"] if r else None)
    # fault
    messages = layer.get("fault.uplink_messages")
    delivered = layer.get("fault.uplink_delivered")
    frames = (messages or 0) + (layer.get("fault.uplink_retx") or 0)
    put("fault.uplink_messages", messages or None)
    put("fault.uplink_delivered", delivered or None)
    # Useful outcomes per attempt: delivered messages per data frame sent.
    put("fault.delivery_ratio", delivered / frames if frames else None)
    put("fault.uplink_retx", layer.get("fault.uplink_retx"))
    put("fault.arq_acks", layer.get("fault.arq_acks"))
    # serve
    rounds = raw.get("rounds", [])
    tick_ms = [r[5] for r in rounds if r[4]]
    put("serve.tick_ms_p50", median(tick_ms))
    t = tail(tick_ms)
    put("serve.tick_ms_tail", t.value if t else None)
    put("serve.broker.advance_ms", median(layer.get("serve.broker.advance_ms", [])))
    for key in ("serve.poll_busy_ms_per_round", "serve.wire.decode_ns_per_frame",
                "serve.wire.encode_ns_per_frame",
                "serve.broker.convergecasts_per_round", "serve.broker.rebuilds",
                "serve.coalescing_ratio", "serve.bytes_out_per_round"):
        put(key, layer.get(key) or None)
    churn = [(c[1], c[2], c[3], c[5]) for c in raw.get("churn", [])]
    t = tail(generator_lateness_ms(churn))
    put("serve.gen_late_ms_tail", t.value if t else None)
    # self time per layer and span coverage, over the traced units
    windows = traced_windows(raw)
    own = self_times(spans, windows)
    for name in LAYERS:
        put(f"{name}.self_s", own.get(name) or None)
    put("trace.span_coverage", coverage(spans, windows))
    untraced, _ = end_to_end(raw, traced=False)
    traced_values, _ = end_to_end(raw, traced=True)
    key = "sim_node_rounds_per_s" if sim else "serve.round_p50_ms"
    put("trace.overhead_pct", overhead_pct(key, untraced[key], traced_values[key]))
    return out, sorted(zero)


HIGHER_IS_BETTER = {"sim_node_rounds_per_s", "serve.capacity_rounds_per_s"}


def overhead_pct(name, untraced, traced):
    """How much worse the traced value is, in percent of the untraced one
    (negative when the traced units happened to run faster)."""
    if not untraced or traced is None:
        return None
    if name in HIGHER_IS_BETTER:
        return (untraced - traced) / untraced * 100.0
    return (traced - untraced) / untraced * 100.0

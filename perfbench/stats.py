"""Statistics and trace summarizing for perfbench/run.py.

Everything here is pure Python over the files lsmbench writes:
run.json (per-op-type latency samples, window counters, set-up times)
and, for traced runs, spans.bin (see perfbench/trace.h for its layout).
perfbench/test_stats.py tests the rules below.
"""

import math
import statistics
from array import array
from collections import namedtuple

# Percentiles a tail may be reported at, low to high.
TAIL_LADDER = (75.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (rounded
    first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list: always a sample."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[rank(len(sorted_values), p) - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile's rank."""
    return n - rank(n, p)


def tail(sorted_values, cap):
    """The highest ladder percentile, at most `cap`, with at least
    MIN_BEYOND samples beyond it. Returns (percentile, value, beyond).

    `cap` keeps the tail off a mode boundary: a workload whose ops
    sometimes run an inline flush or merge caps its tail well below the
    share of such ops, so the reported tail is the fast mode's tail and
    not the seam between the modes. With too few samples for any ladder
    step, the tail is the sample MIN_BEYOND below the maximum.
    """
    n = len(sorted_values)
    chosen = None
    for p in TAIL_LADDER:
        if p <= cap and samples_beyond(n, p) >= MIN_BEYOND:
            chosen = p
    if chosen is None:
        if n <= MIN_BEYOND:
            raise ValueError("need more than %d samples for a tail" % MIN_BEYOND)
        chosen = 100.0 * (n - MIN_BEYOND) / n
    return chosen, percentile(sorted_values, chosen), samples_beyond(n, chosen)


def geomean(values):
    """Geometric mean of positive numbers (op types of different scale
    then weigh equally)."""
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def covered(interval, children):
    """Length of `interval` covered by the union of the child intervals
    (children may overlap each other or stick out of the parent)."""
    lo, hi = interval
    total = 0
    cur_lo = cur_hi = None
    for c_lo, c_hi in sorted(children):
        c_lo, c_hi = max(c_lo, lo), min(c_hi, hi)
        if c_hi <= c_lo:
            continue
        if cur_hi is None or c_lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = c_lo, c_hi
        else:
            cur_hi = max(cur_hi, c_hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its child spans cover. `spans` have id, parent, start and end
    attributes; returns {id: self_ns}."""
    children = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered((s.start, s.end), children.get(s.id, []))
            for s in spans}


# ---------------------------------------------------------------------------
# End-to-end metrics

# Highest tail percentile per workload (see tail()). ingest_update and
# lookup_mixed run inline flushes and merges inside ~0.1% of their write
# ops, so their tails stop at p99; scan_analytics has no second mode.
TAIL_CAP = {"ingest_update": 99.0, "scan_analytics": 99.9, "lookup_mixed": 99.0}

# Op cycles per segment of a run (see quietest_p50()): a few seconds of
# ops, as other tenants' load comes and goes over seconds, and at least 20
# samples of every op type (1,000 deletes in ingest_update), so a
# segment's median is not one outlier.
SEGMENT_CYCLES = {"ingest_update": 1000, "scan_analytics": 20, "lookup_mixed": 1000}


def segments(values, size):
    """The consecutive full segments of `size` samples (a trailing partial
    one is dropped), or all of `values` as one segment when it holds fewer
    than `size`."""
    count = len(values) // size
    if count == 0:
        return [values]
    return [values[i * size:(i + 1) * size] for i in range(count)]


def quietest_p50(samples, size):
    """(lowest segment median, segments) of one op type's samples in run
    order. Other tenants of a shared host only ever add time to an op,
    and their load comes and goes over seconds to minutes, so the quietest
    segment is the run's best estimate of the program's own median."""
    segs = segments(samples, size)
    return min(percentile(sorted(s), 50.0) for s in segs), len(segs)


def end_to_end(run):
    """The end-to-end metrics of an untraced run, plus per-op-type detail
    for the human-readable report."""
    cycles = run["attempted"] // run["cycle_length"]
    per_cycle = {t: len(run["samples_ns"][t]) // cycles for t in run["op_types"]}
    seg_cycles = SEGMENT_CYCLES[run["workload"]]
    per_type = {}
    p50s, tails = [], []
    for op_type in run["op_types"]:
        samples = run["samples_ns"][op_type]
        size = seg_cycles * per_cycle[op_type]
        p50, count = quietest_p50(samples, size)
        values = sorted(samples)
        p, tail_ns, beyond = tail(values, TAIL_CAP[run["workload"]])
        per_type[op_type] = {
            "n": len(values), "segments": count,
            "segment_samples": min(len(values), size), "p50_us": p50 / 1e3,
            "whole_run_p50_us": percentile(values, 50.0) / 1e3,
            "tail_pct": p, "tail_us": tail_ns / 1e3, "beyond": beyond}
        p50s.append(p50 / 1e3)
        tails.append(tail_ns / 1e3)
    w = run["window_end"]
    metrics = {
        "setup_s": (statistics.median(run["setup_s_runs"]), "s"),
        "ops_per_s": (run["untraced_ops"] / run["untraced_op_s"], "1/s"),
        "op_p50_us_geomean": (geomean(p50s), "us"),
        "op_tail_us_geomean": (geomean(tails), "us"),
        "write_bytes_per_input_byte": (w["write_bytes_per_input_byte"], "ratio"),
        "disk_bytes_per_input_byte": (w["disk_bytes_per_input_byte"], "ratio"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
    }
    return metrics, per_type


# ---------------------------------------------------------------------------
# Trace summarizer

SPAN_FIXED = ("op", "id", "parent", "name", "start", "end")
# The counter deltas the summarizer reads (spans.bin holds more).
SPAN_COUNTERS = ("flushes", "merge_us")
Span = namedtuple("Span", SPAN_FIXED + SPAN_COUNTERS)


def load_spans(path, names, counter_names):
    """Reads spans.bin into a list of Span tuples (name as a string)."""
    width = len(SPAN_FIXED) + len(counter_names)
    raw = array("q")
    with open(path, "rb") as f:
        raw.frombytes(f.read())
    if len(raw) % width:
        raise ValueError("truncated spans file")
    at = [len(SPAN_FIXED) + list(counter_names).index(c) for c in SPAN_COUNTERS]
    return [Span(raw[k], raw[k + 1], raw[k + 2], names[raw[k + 3]], raw[k + 4],
                 raw[k + 5], *(raw[k + a] for a in at))
            for k in range(0, len(raw), width)]


# Every per-layer metric and its unit. A workload reports 0 for a metric
# of a layer it does not exercise (see perfbench/README.md).
PER_LAYER_UNITS = {
    "json.parse_us_p50": "us",
    "lsm.insert_us_p50": "us",
    "lsm.delete_us_p50": "us",
    "lsm.flush_ms_p50": "ms",
    "lsm.flushes": "count",
    "lsm.merge_ms_total": "ms",
    "lsm.merges": "count",
    "lsm.merge_bytes_in_per_input_byte": "ratio",
    "storage.wal_bytes_per_input_byte": "ratio",
    "storage.wal_syncs_per_op": "ratio",
    "lsm.components_end": "count",
    "lsm.write_stalls": "count",
    "storage.io_retries": "count",
    "lsm.snapshot_us_p50": "us",
    "query.compiled_us_p50_geomean.amax": "us",
    "query.compiled_us_p50_geomean.apax": "us",
    "query.tuples_per_result_row": "ratio",
    "storage.cache_hit_ratio": "ratio",
    "storage.bytes_read_per_query_cold.amax": "bytes",
    "storage.bytes_read_per_query_cold.apax": "bytes",
    "lsm.components.amax": "count",
    "lsm.components.apax": "count",
    "lsm.lookup_hit_us_p50": "us",
    "lsm.lookup_miss_us_p50": "us",
    "index.range_count_us_p50": "us",
    "index.upsert_us_p50": "us",
    "storage.cache_misses_per_lookup": "ratio",
    "storage.bytes_read_per_lookup": "bytes",
    "storage.evictions_per_op": "ratio",
    "lsm.components_mean": "count",
    "trace.overhead_ratio": "ratio",
}


def _p50_us(durations_ns):
    return percentile(sorted(durations_ns), 50.0) / 1e3 if durations_ns else 0.0


def summarize_trace(run, spans):
    """Per-layer metrics of a traced run, and self time per span name.

    Span timings give the latency metrics; the deterministic counts come
    from the run's accounting window (counter deltas taken around the
    same calls on every run), so they repeat exactly for one seed.
    """
    root = {s.op: s.name for s in spans if s.parent < 0}
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def durations(name, op_type=None, where=None):
        return [s.end - s.start for s in by_name.get(name, [])
                if (op_type is None or root.get(s.op) == "op." + op_type)
                and (where is None or where(s))]

    m = {name: 0.0 for name in PER_LAYER_UNITS}
    w = run["window_end"]
    win = run["window"]
    workload = run["workload"]
    # Inline flushes, in whichever call ran one (Insert/Delete in
    # ingest_update, indexed upserts in lookup_mixed), minus the merge
    # time they include; merge time over the window's ops.
    flush_ns = [s.end - s.start - 1000 * s.merge_us
                for s in spans if s.parent >= 0 and s.flushes > 0]
    m["lsm.flush_ms_p50"] = _p50_us(flush_ns) / 1e3
    m["lsm.merge_ms_total"] = sum(c["merge_us"] for c in win.values()) / 1e3
    if workload == "ingest_update":
        no_flush = lambda s: s.flushes == 0
        m["json.parse_us_p50"] = _p50_us(durations("json.parse"))
        m["lsm.insert_us_p50"] = _p50_us(durations("lsm.insert", where=no_flush))
        m["lsm.delete_us_p50"] = _p50_us(durations("lsm.delete", where=no_flush))
        for key in ("flushes", "merges", "merge_bytes_in_per_input_byte",
                    "components_end",
                    "write_stalls"):
            m["lsm." + key] = w[key]
        for key in ("wal_bytes_per_input_byte", "wal_syncs_per_op", "io_retries"):
            m["storage." + key] = w[key]
    elif workload == "scan_analytics":
        m["lsm.snapshot_us_p50"] = _p50_us(durations("lsm.snapshot"))
        for layout in ("amax", "apax"):
            types = [t for t in run["op_types"] if t.startswith(layout + ".")]
            m["query.compiled_us_p50_geomean." + layout] = geomean(
                _p50_us(durations("query.compiled." + layout, t)) for t in types)
            m["storage.bytes_read_per_query_cold." + layout] = \
                w["bytes_read_per_query_cold." + layout]
            m["lsm.components." + layout] = w["components." + layout]
        m["query.tuples_per_result_row"] = w["tuples_per_result_row"]
        m["storage.cache_hit_ratio"] = _hit_ratio(win.values())
    elif workload == "lookup_mixed":
        m["lsm.lookup_hit_us_p50"] = _p50_us(durations("lsm.lookup", "lookup_hit"))
        m["lsm.lookup_miss_us_p50"] = _p50_us(durations("lsm.lookup", "lookup_miss"))
        m["index.range_count_us_p50"] = _p50_us(durations("index.count"))
        m["index.upsert_us_p50"] = _p50_us(durations("index.insert"))
        lookups = [win["lookup_hit"], win["lookup_miss"]]
        n_lookups = sum(c["ops"] for c in lookups)
        m["storage.cache_misses_per_lookup"] = \
            sum(c["cache_misses"] for c in lookups) / n_lookups
        m["storage.bytes_read_per_lookup"] = \
            sum(c["cache_bytes_read"] for c in lookups) / n_lookups
        m["storage.evictions_per_op"] = \
            sum(c["cache_evictions"] for c in win.values()) / run["window_ops"]
        m["storage.cache_hit_ratio"] = _hit_ratio(win.values())
        m["lsm.components_mean"] = w["components_mean"]
        m["lsm.flushes"] = w["flushes"]
        m["lsm.merges"] = w["merges"]
    m["trace.overhead_ratio"] = overhead_ratio(run)

    selfs = self_times(spans)
    self_by_name = {}
    for s in spans:
        self_by_name.setdefault(s.name, []).append(selfs[s.id])
    self_summary = {name: {"spans": len(v), "self_ms_total": sum(v) / 1e6,
                           "self_us_p50": _p50_us(v)}
                    for name, v in sorted(self_by_name.items())}
    return {k: (float(v), PER_LAYER_UNITS[k]) for k, v in m.items()}, self_summary


def overhead_ratio(run):
    """Untraced over traced op rate: the geomean over op types of the
    traced median op time divided by the untraced one. Medians, so the
    few ops that run a whole inline merge do not decide it by landing in
    one mode's rounds."""
    return geomean(
        percentile(sorted(run["traced_samples_ns"][t]), 50.0)
        / percentile(sorted(run["samples_ns"][t]), 50.0)
        for t in run["op_types"])


def _hit_ratio(window_counters):
    hits = sum(c["cache_hits"] for c in window_counters)
    misses = sum(c["cache_misses"] for c in window_counters)
    return hits / (hits + misses) if hits + misses else 0.0

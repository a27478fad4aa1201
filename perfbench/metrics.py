"""Arithmetic of the benchmark: from the spans and counters one perfbench run
recorded to the metrics BENCHMARK.json names.

Kept apart from run.py so that tests can check it without building or
running anything (python3 -m unittest discover perfbench).
"""

import math
import statistics

CASES = (1, 2, 3)
BATCH_WORKLOADS = ("label", "train")
SERVE_WORKLOADS = ("serve_small", "serve_bulk")
WORKLOADS = BATCH_WORKLOADS + SERVE_WORKLOADS

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}


def _per_case(names_units):
    return [(f"{name}.case{c}", unit) for name, unit in names_units for c in CASES]


PER_LAYER = dict(
    _per_case([
        ("dataset.generate_cold_s", "s"),
        ("dataset.generate_warm_s", "s"),
        ("search.snapshot_save_s", "s"),
        ("search.snapshot_load_s", "s"),
        ("search.snapshot_mb", "MiB"),
        ("search.cold_misses", "count"),
        ("search.warm_hit_ratio", "ratio"),
        ("dataset.write_s", "s"),
        ("dataset.read_s", "s"),
        ("search.exhaustive_us", "us"),
        ("dataset.encode_s", "s"),
        ("models.fit_s", "s"),
        ("ml.train_step_us", "us"),
        ("models.fit_overhead_s", "s"),
        ("core.save_s", "s"),
        ("core.model_mb", "MiB"),
        ("models.val_accuracy", "ratio"),
    ])
    + [
        ("core.load_s", "s"),
        ("core.recommend_batch_us.p50", "us"),
        ("core.recommend_batch_us.p99", "us"),
        ("serve.codec_us.p50", "us"),
        ("serve.socket_rtt_us.p50", "us"),
        ("serve.residual_us.p50", "us"),
        ("serve.batches", "count"),
        ("serve.mean_batch_queries", "count"),
        ("serve.errors", "count"),
    ]
    # The traced run's own end-to-end values: their distance from the
    # untraced runs' medians is the tracing overhead.
    + [(f"traced.{name}", unit) for name, unit in END_TO_END.items()]
)

# Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10
# Serve runs are cut into windows of this length; each end-to-end metric is
# computed per window and the median over windows is reported, so a burst
# of interference from outside the process moves no metric.
WINDOW_S = 1.0


def percentile(samples, q):
    """The q-th percentile by the nearest-rank rule (a sample, never an
    interpolation)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9)) - 1]


def tail_percentile(samples, cap=99.0):
    """The highest percentile, at most `cap`, with at least TAIL_BEYOND
    samples beyond it; never below the median.

    Returns (percentile, value, sample count). Fewer than 2 * TAIL_BEYOND
    samples support no tail above the median, so the median is returned.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    q = max(50.0, min(cap, 100.0 * (n - TAIL_BEYOND) / n))
    return q, percentile(samples, q), n


def durations(spans, name, case=None):
    """Durations in seconds of the spans called `name` (of one case)."""
    return [
        (s["end"] - s["start"]) * 1e-9
        for s in spans
        if s["name"] == name and (case is None or s["case"] == case)
    ]


def parse_spans(rows):
    """Span rows as perfbench writes them: [name, case, start_ns, end_ns,
    parent, request]."""
    keys = ("name", "case", "start", "end", "parent", "request")
    return [dict(zip(keys, row)) for row in rows]


def serve_windows(spans, window_s=WINDOW_S):
    """The run cut into whole windows: [(seconds, request latencies in s)],
    each request placed by the time its reply arrived. A run shorter than
    one window is a single window of its own length."""
    requests = sorted((s for s in spans if s["name"] == "serve.request"), key=lambda s: s["end"])
    if not requests:
        raise ValueError("no requests")
    t0 = min(s["start"] for s in requests)
    elapsed = (requests[-1]["end"] - t0) * 1e-9
    full = int(elapsed // window_s)
    if full == 0:
        return [(elapsed, [(s["end"] - s["start"]) * 1e-9 for s in requests])]
    windows = [(window_s, []) for _ in range(full)]
    for s in requests:
        k = int((s["end"] - t0) * 1e-9 // window_s)
        if k < full:
            windows[k][1].append((s["end"] - s["start"]) * 1e-9)
    return [w for w in windows if w[1]]


def items_per_s(workload, counters, spans, window_s=WINDOW_S):
    """Work completed per second, as the median over the run's windows.

    Batch workloads: each job is a window and every job does the same work,
    so a job's rate is items / jobs / its duration. Serve workloads: queries
    answered (requests x queries per request) per window.
    """
    if workload in BATCH_WORKLOADS:
        jobs = durations(spans, "job")
        per_job = counters["items"] / len(jobs)
        return statistics.median(per_job / d for d in jobs)
    per_request = counters["serve.batch_queries"]
    return statistics.median(
        len(latencies) * per_request / seconds
        for seconds, latencies in serve_windows(spans, window_s))


def latency_ms(workload, spans, window_s=WINDOW_S):
    """(p50, tail, note): batch workloads time whole jobs; serve workloads
    time each request from client send to decoded reply, per window, and
    report the median over windows."""
    if workload in BATCH_WORKLOADS:
        jobs = [d * 1e3 for d in durations(spans, "job")]
        q, tail, n = tail_percentile(jobs)
        return percentile(jobs, 50), tail, f"p{q:g} of {n} jobs"
    windows = [latencies for _, latencies in serve_windows(spans, window_s)]
    tails = [tail_percentile(w) for w in windows]
    p50 = statistics.median(percentile(w, 50) for w in windows) * 1e3
    tail = statistics.median(t[1] for t in tails) * 1e3
    counts = sorted(t[2] for t in tails)
    note = (f"median over {len(windows)} windows of p{min(t[0] for t in tails):g} "
            f"(windows of {counts[0]}..{counts[-1]} requests, {sum(counts)} in all)")
    return p50, tail, note


def end_to_end(workload, raw):
    """The end-to-end metrics of one run, plus notes on how each was taken."""
    spans = raw["spans"]
    counters = raw["counters"]
    p50, tail, note = latency_ms(workload, spans)
    values = {
        "setup_s": statistics.median(durations(spans, "setup")),
        "items_per_s": items_per_s(workload, counters, spans),
        "latency_p50_ms": p50,
        "latency_p99_ms": tail,
        "peak_rss_mb": counters["peak_rss_mb"],
    }
    notes = [f"setup_s is the median of {len(durations(spans, 'setup'))} set-ups",
             f"latency_p99_ms is the {note}"]
    return values, notes


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def residual_us(latency_p50_us, recommend_p50_us, codec_p50_us, socket_p50_us):
    """Per-request time the traced parts do not explain: admission wait and
    thread handoffs inside the service."""
    return latency_p50_us - (recommend_p50_us + codec_p50_us + socket_p50_us)


def fit_overhead_s(fit_s, step_durations_s):
    """Fit time outside the optimizer steps (shuffle, gather, validation):
    the fit minus the summed steps of its step-by-step replay. Empty when
    nothing was replayed."""
    return fit_s - sum(step_durations_s) if step_durations_s else 0.0


def per_layer(workload, raw):
    """Per-layer metrics of a traced run. A layer this workload does not call
    reads 0 (no work, no time)."""
    spans = raw["spans"]
    counters = raw["counters"]
    out = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name in counters:
            out[name] = float(counters[name])

    def med(span_name, case=None, scale=1.0):
        return _median_or_zero([d * scale for d in durations(spans, span_name, case)])

    if workload == "label":
        for c in CASES:
            k = f".case{c}"
            out["dataset.generate_cold_s" + k] = med("dataset.generate_cold", c)
            out["dataset.generate_warm_s" + k] = med("dataset.generate_warm", c)
            out["search.snapshot_save_s" + k] = med("search.snapshot_save", c)
            out["search.snapshot_load_s" + k] = med("search.snapshot_load", c)
            out["dataset.write_s" + k] = med("dataset.write", c)
            out["dataset.read_s" + k] = med("dataset.read", c)
            out["search.exhaustive_us" + k] = med("search.exhaustive", c, 1e6)
    elif workload == "train":
        for c in CASES:
            k = f".case{c}"
            fit_s = med("models.fit", c)
            out["dataset.encode_s" + k] = med("dataset.encode", c)
            out["models.fit_s" + k] = fit_s
            out["ml.train_step_us" + k] = med("ml.train_step", c, 1e6)
            out["models.fit_overhead_s" + k] = fit_overhead_s(
                fit_s, durations(spans, "ml.train_step", c))
            out["core.save_s" + k] = med("core.save", c)
    else:
        # Three loads per set-up: sum them per set-up, then take the median.
        loads = {}
        for s in spans:
            if s["name"] == "core.load":
                loads[s["parent"]] = loads.get(s["parent"], 0.0) + (s["end"] - s["start"]) * 1e-9
        out["core.load_s"] = _median_or_zero(list(loads.values()))
        rb = [d * 1e6 for d in durations(spans, "core.recommend_batch")]
        out["core.recommend_batch_us.p50"] = _median_or_zero(rb)
        out["core.recommend_batch_us.p99"] = tail_percentile(rb)[1] if rb else 0.0
        out["serve.codec_us.p50"] = med("serve.codec", None, 1e6)
        out["serve.socket_rtt_us.p50"] = med("serve.socket_rtt", None, 1e6)
        out["serve.residual_us.p50"] = residual_us(
            latency_ms(workload, spans)[0] * 1e3,
            out["core.recommend_batch_us.p50"],
            out["serve.codec_us.p50"],
            out["serve.socket_rtt_us.p50"],
        )

    e2e, _ = end_to_end(workload, raw)
    for name, value in e2e.items():
        out["traced." + name] = value
    return out


def recommend_p50_us_by_case(spans):
    """Median in-process recommend_batch time per case study (the model work
    inside one request), for the traced serve breakdown."""
    return {c: _median_or_zero(durations(spans, "core.recommend_batch", c)) * 1e6 for c in CASES}


def result_line(attempted, failed, values, units):
    """The benchmark's last output line, as a JSON-ready dict."""
    if attempted < 1:
        raise ValueError("a run attempts at least one operation")
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }

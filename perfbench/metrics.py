"""Metric names and units, and the result line the benchmark prints.

``BENCHMARK.json`` lists the same names and units; the benchmark's tests
hold the two in step.
"""

from __future__ import annotations

import json

from ledger import BUSY_LAYERS, LAYERS

#: End-to-end metrics (tracing off), every workload.
END_TO_END = {
    "jobs_per_s": "1/s",
    "sim_kips": "kinst/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "hit_p50_ms": "ms",
    "hit_p90_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    for layer in BUSY_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update({
        "sim.events.per_kinst": "1/kinst",
        "mem.l1_hit_ratio": "ratio",
        "mem.l2_hit_ratio": "ratio",
        "mem.dram_row_hit_ratio": "ratio",
        "harness.cache.hit_ratio": "ratio",
        "service.worker_utilization": "ratio",
        "service.wait_ms": "ms",
        "trace.overhead_ratio": "ratio",
        "trace.per_call_us": "us",
    })
    return units


#: Per-layer metrics (traced run), every workload; a layer a workload does
#: not reach reads 0.
PER_LAYER = _per_layer()


def smoothed_quantile(values: list[float], q: float,
                      half_width: float) -> float:
    """The ``q`` quantile as the mean of the order statistics within
    ``half_width`` of it.

    Cell times cluster by kernel, so a plain order statistic jumps between
    clusters when the host speed shifts slightly; averaging the
    neighbourhood keeps the estimate proportional to the speed.
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    low = max(0, int(round((q - half_width) * last)))
    high = min(last, int(round((q + half_width) * last)))
    window = ordered[low:high + 1]
    return sum(window) / len(window)


def percentiles_ms(seconds: list[float]) -> tuple[float, float]:
    """(median, 90th percentile) of durations, in milliseconds.

    The median averages the middle 30% of the durations, the 90th
    percentile the 85th to 95th: wide enough to span the gaps between
    kernel clusters, narrow enough to stay a median and a tail.
    """
    return (smoothed_quantile(seconds, 0.5, half_width=0.15) * 1000.0,
            smoothed_quantile(seconds, 0.9, half_width=0.05) * 1000.0)


def layer_metrics(before: dict, after: dict, total_s: float,
                  cost: tuple[float, float]) -> tuple[dict[str, float], float]:
    """Per-layer calls, self (or busy) time and share between two ledger
    snapshots spanning ``total_s`` seconds of traced wall time; also the
    estimated untraced wall time.

    ``cost`` is the calibrated wrapper cost per call, ``(own, parent)``
    (see :func:`ledger.calibrate`).  Self times have it subtracted: ``own``
    per call of the layer, ``parent`` per wrapped call the layer made.
    Shares are over the traced wall time less all wrapper cost.
    """
    own, parent = cost
    values: dict[str, float] = {}
    wrapper_s = 0.0
    for layer in LAYERS:
        calls, seconds, child_calls = (a - b for a, b in
                                       zip(after[layer], before[layer]))
        overhead = calls * own + child_calls * parent
        wrapper_s += overhead
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = max(seconds - overhead, 0.0)
    for layer in BUSY_LAYERS:
        values[f"{layer}.calls"] = after[layer][0] - before[layer][0]
        values[f"{layer}.busy_s"] = after[layer][1] - before[layer][1]
    untraced = max(total_s - wrapper_s, 1e-9)
    for layer in LAYERS + BUSY_LAYERS:
        kind = "busy_s" if layer in BUSY_LAYERS else "self_s"
        values[f"{layer}.share"] = values[f"{layer}.{kind}"] / untraced
    gets = after["gets"] - before["gets"]
    hits = after["hits"] - before["hits"]
    values["harness.cache.hit_ratio"] = hits / gets if gets else 0.0
    return values, untraced


def memory_ratios(results) -> dict[str, float]:
    """Hit ratios of the simulated memory system, summed over results."""
    l1_hits = l1_acc = l2_hits = l2_acc = row_hits = row_all = 0
    for result in results:
        l1_hits += result.l1.hits
        l1_acc += result.l1.accesses
        l2_hits += result.l2.hits
        l2_acc += result.l2.accesses
        row_hits += result.dram.row_hits
        row_all += result.dram.row_hits + result.dram.row_misses
    return {
        "mem.l1_hit_ratio": l1_hits / l1_acc if l1_acc else 0.0,
        "mem.l2_hit_ratio": l2_hits / l2_acc if l2_acc else 0.0,
        "mem.dram_row_hit_ratio": row_hits / row_all if row_all else 0.0,
    }


def result_line(*, correct: bool, attempted: int, failed: int,
                values: dict[str, float], trace: bool) -> str:
    """The JSON object printed as the run's last line."""
    units = PER_LAYER if trace else END_TO_END
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise ValueError(f"metric set mismatch: missing {missing}, "
                         f"unexpected {extra}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})

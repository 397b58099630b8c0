"""The two paper-sweep workloads: ``sweep-mem`` and ``sweep-compute``.

Closed loop, one caller: ``repro.harness.engine.run_batch(workers=1)``
in-process over the run's job list, into a fresh, empty result cache.
A job's wall time is the gap between consecutive ``on_outcome`` arrivals;
its cache-hit latency is the fastest of ``HIT_READS`` reads of the entry
it just wrote.  Both are scaled to the reference host speed
(:mod:`yardstick`), and the percentiles are taken over cells, each at its
median over the run's passes.  After the timed pass the whole list is
replayed from the now-warm cache and every replayed result is gated
again.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import inputs
import metrics
import yardstick
from gate import Gate
from ledger import Ledger, calibrate
from repro.harness import engine
from repro.harness.cache import ResultCache

#: Share of the job list re-run untraced to measure the tracing overhead.
REFERENCE_SHARE = 0.1

#: Timed reads of each job's fresh cache entry (the fastest counts).
HIT_READS = 5

#: Yardstick samples before each timed job; their median sets its scale.
SPEED_SAMPLES = 3


class Setup:
    """Everything before the first timed job: job list, cache dir, warm-up."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 tmp_root: Path) -> None:
        self.jobs = inputs.sweep_jobs(workload, seed, seconds)
        tmp_root.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
        self.cache = ResultCache(self.tmp / "cache")
        warmup = engine.run_batch([inputs.warmup_job(seed)], workers=1)
        if warmup.failures():
            raise RuntimeError(f"warm-up job failed: "
                               f"{warmup.first_failure().error}")

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def describe(workload: str, seconds: float, jobs) -> str:
    passes = inputs.sweep_passes(workload, seconds)
    return (f"{workload}: {len(jobs)} cells "
            f"({passes} pass(es) of {len(jobs) // passes})")


def timed_batch(jobs, cache, probe_hits: bool = False,
                normalize: bool = False):
    """Run one batch; return (report, wall seconds, per-job seconds, hit
    seconds).

    With ``probe_hits``, each job's freshly written cache entry is read
    back ``HIT_READS`` times as soon as the job's outcome arrives; the
    fastest read is that job's cache-hit latency.  Reading happens between
    jobs, so hits are sampled over the whole run like the job times are,
    and it is left out of the wall time and the job gaps.

    With ``normalize``, ``SPEED_SAMPLES`` yardstick samples run before
    each job and before each job's hit reads (outside the gaps), and the
    times that follow are scaled to the reference speed by their median
    (see :mod:`yardstick`); the wall time is then the sum of the scaled
    gaps.
    """
    gaps: list[float] = []
    hits: list[float] = []
    paused = 0.0
    factor = 1.0

    def measure_speed() -> None:
        nonlocal factor
        if normalize:
            factor = yardstick.scale([yardstick.sample()
                                      for _ in range(SPEED_SAMPLES)])

    measure_speed()
    start = resumed = time.perf_counter()

    def on_outcome(outcome) -> None:
        nonlocal paused, resumed
        arrived = time.perf_counter()
        gaps.append((arrived - resumed) * factor)
        measure_speed()
        if probe_hits and outcome.result is not None:
            hits.append(factor * min(_timed_get(cache, outcome.fingerprint)
                                     for _ in range(HIT_READS)))
        resumed = time.perf_counter()
        paused += resumed - arrived

    report = engine.run_batch(jobs, workers=1, cache=cache,
                              on_outcome=on_outcome)
    wall = sum(gaps) if normalize else time.perf_counter() - start - paused
    return report, wall, gaps, hits


def _timed_get(cache, fingerprint: str) -> float:
    start = time.perf_counter()
    if cache.get(fingerprint) is None:
        raise RuntimeError(f"cache entry {fingerprint[:12]} missing after "
                           f"its job completed")
    return time.perf_counter() - start


def per_cell(jobs, seconds: list[float]) -> list[float]:
    """Each cell's median time over the run's passes (a cell is a job
    without its seed; every pass runs each cell once, at its own seed)."""
    by_cell: dict[str, list[float]] = {}
    for job, took in zip(jobs, seconds):
        by_cell.setdefault(inputs.cell_key(job), []).append(took)
    return [statistics.median(times) for times in by_cell.values()]


def check(gate: Gate, jobs, report, expect: str) -> int:
    """Gate every outcome of ``report``; return the number that failed."""
    failed = 0
    for job, outcome in zip(jobs, report.outcomes):
        if outcome.status != expect:
            gate.errors.append(f"{inputs.job_label(job)}: status "
                               f"{outcome.status} (expected {expect}): "
                               f"{outcome.error}")
            failed += 1
        elif not gate.check(inputs.job_label(job), job, outcome.result):
            failed += 1
    return failed


def run(workload: str, seed: int, seconds: float, trace: bool,
        started: float, setup_samples, tmp_root: Path, gate: Gate) -> dict:
    """One run; returns ``{"attempted", "failed", "values"}``.

    ``started`` is the set-up's start from :func:`yardstick.start_setup`;
    ``setup_samples()`` returns extra set-up times measured in fresh
    processes (called after the timed work, so they cannot disturb it).
    """
    setup = Setup(workload, seed, seconds, tmp_root)
    try:
        setup_s = yardstick.setup_seconds(started)
        jobs = setup.jobs
        if trace:
            return _traced(workload, seed, seconds, setup, gate)
        report, wall, gaps, hit_times = timed_batch(
            jobs, setup.cache, probe_hits=True, normalize=True)
        failed = check(gate, jobs, report, "ok")
        failed += check(gate, jobs, timed_batch(jobs, setup.cache)[0],
                        "cached")
        ok = [o.result for o in report.outcomes if o.status == "ok"]
        p50, p90 = metrics.percentiles_ms(per_cell(jobs, gaps))
        hit50, hit90 = metrics.percentiles_ms(per_cell(jobs, hit_times))
        values = {
            "jobs_per_s": len(ok) / wall,
            "sim_kips": sum(r.instructions for r in ok) / 1000.0 / wall,
            "job_p50_ms": p50,
            "job_p90_ms": p90,
            "hit_p50_ms": hit50,
            "hit_p90_ms": hit90,
            "ok_ratio": len(ok) / len(jobs),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        values["setup_s"] = statistics.median([setup_s] + setup_samples())
        return {"attempted": 2 * len(jobs), "failed": failed,
                "values": values, "inputs": describe(workload, seconds, jobs)}
    finally:
        setup.close()


def _traced(workload: str, seed: int, seconds: float, setup: Setup,
            gate: Gate) -> dict:
    jobs = setup.jobs
    # Untraced reference: the first jobs, into a cache of their own.
    reference = jobs[:max(2, int(len(jobs) * REFERENCE_SHARE))]
    _, _, untraced_gaps, _ = timed_batch(reference,
                                      ResultCache(setup.tmp / "reference"))
    ledger = Ledger()
    before = ledger.snapshot()
    start = time.perf_counter()
    ledger.install()
    try:
        again = inputs.sweep_jobs(workload, seed, seconds)
        report, _, gaps, _ = timed_batch(jobs, setup.cache)
    finally:
        ledger.uninstall()
        total = time.perf_counter() - start
    after = ledger.snapshot()
    failed = check(gate, jobs, report, "ok")
    if [j.fingerprint() for j in again] != [j.fingerprint() for j in jobs]:
        gate.errors.append("job list differs when generated twice")
        failed += 1
    ok = [o.result for o in report.outcomes if o.status == "ok"]
    cost = calibrate()
    values, _ = metrics.layer_metrics(before, after, total, cost)
    kinst = sum(r.instructions for r in ok) / 1000.0
    values["sim.events.per_kinst"] = (values["sim.events.calls"] / kinst
                                      if kinst else 0.0)
    values.update(metrics.memory_ratios(ok))
    values["service.worker_utilization"] = 0.0
    values["service.wait_ms"] = 0.0
    n = len(reference)
    values["trace.overhead_ratio"] = sum(gaps[1:n]) / sum(untraced_gaps[1:n])
    values["trace.per_call_us"] = sum(cost) * 1e6
    return {"attempted": len(jobs), "failed": failed, "values": values,
            "inputs": describe(workload, seconds, jobs)}

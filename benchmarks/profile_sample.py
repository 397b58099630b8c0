"""Sampling profiler for the benchmark workloads' job lists.

Runs a perfbench workload's jobs in-process, as the sweeps do
(``run_batch(workers=1)`` into a fresh result cache), while a
``SIGPROF`` interval timer samples the interrupted Python frame.  Each
sample counts one unit of *self* time for the function it landed in and
for that function's layer.  The report gives the shares of both.

Why sampling rather than cProfile: cProfile charges a fixed cost to every
call, which inflates call-heavy layers (the memory hierarchy, the event
queue) against loop-heavy ones (the issue loop).  A sample costs the same
wherever it lands, so the shares stay proportional to where the time goes.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/profile_sample.py --workload sweep-mem
    PYTHONPATH=src python benchmarks/profile_sample.py \\
        --workload serve-mixed --limit 40 --top 15 --json profile.json

The job lists come from ``perfbench/inputs.py``, imported read-only, so a
profile describes exactly the work the benchmark times (``serve-mixed``
contributes its fresh jobs).  The timer is ``ITIMER_PROF``: it counts
this process's CPU time only and touches nothing else on the host.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Source path fragment -> layer, first match wins.  The names follow the
#: perfbench layer ledger, so a profile and a ``--trace 1`` run line up.
LAYERS = (
    ("repro/sim/events.py", "sim.events"),
    ("repro/sim/vector/gpu.py", "sim.gpu"),
    ("repro/sim/gpu.py", "sim.gpu"),
    ("repro/sim/vector/", "sim.sm"),
    ("repro/sim/sm.py", "sim.sm"),
    ("repro/sim/warp.py", "sim.sm"),
    ("repro/sim/cta.py", "sim.sm"),
    ("repro/sim/kernel.py", "workloads"),
    ("repro/sim/isa.py", "workloads"),
    ("repro/workloads/", "workloads"),
    ("repro/mem/", "mem"),
    ("repro/core/", "core"),
    ("repro/harness/", "harness"),
    ("repro/design/", "design"),
    ("repro/", "other"),
)

DEFAULT_INTERVAL_S = 0.001


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to (None outside the package)."""
    path = filename.replace("\\", "/")
    for fragment, layer in LAYERS:
        if fragment in path:
            return layer
    return None


def _label(code) -> str:
    path = code.co_filename.replace("\\", "/")
    marker = path.rfind("repro/")
    short = path[marker:] if marker >= 0 else Path(path).name
    return f"{short}:{code.co_name}"


def sample(run, interval: float = DEFAULT_INTERVAL_S) -> Counter:
    """Call ``run()`` under the sampling timer.

    Returns a Counter of ``(function, layer) -> samples``.  A sample in
    code outside the package (the standard library, generated dataclass
    methods) keeps its own function name but is charged to the layer of
    the nearest package frame below it on the stack.
    """
    samples: Counter = Counter()

    def on_sample(signum, frame) -> None:
        if frame is None:
            return
        layer = None
        caller = frame
        while caller is not None and layer is None:
            layer = layer_of(caller.f_code.co_filename)
            caller = caller.f_back
        samples[(_label(frame.f_code), layer or "outside")] += 1

    previous = signal.signal(signal.SIGPROF, on_sample)
    signal.setitimer(signal.ITIMER_PROF, interval, interval)
    try:
        run()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
    return samples


def shares(samples: Counter) -> dict:
    """``{"samples", "functions", "layers"}``: share of all samples per
    function and per layer, each sorted largest first."""
    total = sum(samples.values())
    functions: Counter = Counter()
    layers: Counter = Counter()
    for (function, layer), count in samples.items():
        functions[function] += count
        layers[layer] += count
    scale = 1.0 / total if total else 0.0
    return {
        "samples": total,
        "functions": {name: count * scale
                      for name, count in functions.most_common()},
        "layers": {name: count * scale for name, count in layers.most_common()},
    }


def workload_jobs(workload: str, seed: int, seconds: float):
    """The job list perfbench runs for ``workload`` (fresh jobs only for
    ``serve-mixed``)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    if workload == "serve-mixed":
        return [batch[0].job for plan in inputs.serve_plan(seed, seconds)
                for batch in plan]
    return inputs.sweep_jobs(workload, seed, seconds)


def profile_jobs(jobs, interval: float = DEFAULT_INTERVAL_S) -> dict:
    """Sample one in-process ``run_batch`` over ``jobs`` (fresh cache)."""
    from repro.harness.cache import ResultCache
    from repro.harness.engine import run_batch

    with tempfile.TemporaryDirectory(prefix="profile-sample-") as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        reports = []
        counted = sample(lambda: reports.append(
            run_batch(jobs, workers=1, cache=cache)), interval)
    failed = reports[0].failures()
    if failed:
        raise RuntimeError(f"{len(failed)} job(s) failed; first: "
                           f"{reports[0].first_failure().error}")
    report = shares(counted)
    report["jobs"] = len(jobs)
    report["interval_s"] = interval
    return report


def render(report: dict, top: int) -> str:
    lines = [f"{report['jobs']} job(s), {report['samples']} samples at "
             f"{report['interval_s'] * 1e3:g} ms", "", "layer self-time shares:"]
    for layer, share in report["layers"].items():
        lines.append(f"  {layer:<12} {share:6.1%}")
    lines += ["", f"top {top} functions by self time:"]
    for function, share in list(report["functions"].items())[:top]:
        lines.append(f"  {share:6.1%}  {function}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="sampling profile of a perfbench workload's job list")
    parser.add_argument("--workload", default="sweep-mem",
                        choices=("sweep-mem", "sweep-compute", "serve-mixed"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="nominal run length, as perfbench's --seconds")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="profile only the first N jobs")
    parser.add_argument("--interval", type=float, default=DEFAULT_INTERVAL_S,
                        help="sampling interval in CPU seconds")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the full report as JSON")
    args = parser.parse_args(argv)

    jobs = workload_jobs(args.workload, args.seed, args.seconds)
    if args.limit is not None:
        jobs = jobs[:args.limit]
    report = profile_jobs(jobs, args.interval)
    report["workload"] = args.workload
    print(render(report, args.top))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

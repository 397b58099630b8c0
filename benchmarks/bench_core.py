"""Core-backend benchmark: object vs vector wall-clock, with parity.

Runs the pinned 16-cell matrix — the 12 gto kernel/policy cells
``bench_engine.py`` uses plus the two membership warp schedulers
(``two-level``, ``("swl", 8)``) on kmeans and streaming — once per
simulator backend, asserts the two
results are bitwise-identical, and reports per-cell wall-clock and
speedup plus the geometric-mean speedup.  The committed snapshot lives in
``BENCH_core.json`` at the repo root (regenerate with ``make bench-core``
on a quiet machine).

Two modes:

``--out PATH``
    Measure and write the JSON snapshot (the default writes
    ``BENCH_core.json`` in the current directory).

``--check PATH``
    Measure and compare against a committed snapshot: any cell whose
    vector-vs-object *speedup* regressed by more than ``--tolerance``
    (default 20 %) fails the run.  Speedup ratios — not absolute seconds —
    are compared, so the check is stable across machines of different
    absolute speed; parity is always asserted regardless.

Timing methodology: each cell runs ``--repeats`` times (default 3) per
backend, alternating object and vector runs so that host-speed drift
lands on both sides of the ratio, and the minimum per backend is kept —
the standard way to suppress scheduler noise for single-process CPU
work.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace

from repro.harness.jobs import SimJob
from repro.sim.config import GPUConfig
from repro.verify.golden import canonical_result, diff_paths

#: The measured mix: every engine-bench kernel x the paper's headline
#: policies.  Scale 0.1 keeps the full matrix under ~2 min on one core.
BENCHES = ("kmeans", "streaming", "compute", "stencil")
POLICIES = (("rr",), ("lcs",), ("static", 2))
#: The membership warp schedulers, under the occupancy baseline, on a
#: cache-friendly and a streaming kernel.
MEMBER_CELLS = tuple((name, warp) for name in ("kmeans", "streaming")
                     for warp in ("two-level", ("swl", 8)))
SCALE = 0.1
SEED = 20140219


def matrix() -> list[SimJob]:
    def job(name, policy, warp="gto"):
        return SimJob(names=(name,), scale=SCALE, seed=SEED, warp=warp,
                      policy=policy, config=GPUConfig.small())
    return ([job(name, policy) for name in BENCHES for policy in POLICIES]
            + [job(name, ("rr",), warp) for name, warp in MEMBER_CELLS])


def _warp_label(warp) -> str:
    return f"{warp[0]}{warp[1]}" if isinstance(warp, tuple) else warp


def _label(job: SimJob) -> str:
    policy = "+".join(str(p) for p in job.policy)
    suffix = "" if job.warp == "gto" else f"-{_warp_label(job.warp)}"
    return f"{job.names[0]}-{policy}{suffix}"


def _time_backends(job: SimJob, repeats: int):
    """{backend: (best wall-clock seconds, result dict)} for one cell,
    the two cores' runs interleaved."""
    best = {"object": math.inf, "vector": math.inf}
    results = {}
    for _ in range(repeats):
        for backend in best:
            run = replace(job, backend=backend)
            started = time.perf_counter()
            outcome = run.execute()
            elapsed = time.perf_counter() - started
            best[backend] = min(best[backend], elapsed)
            results[backend] = outcome
    return {backend: (best[backend],
                      canonical_result(results[backend].to_dict()))
            for backend in best}


def measure(repeats: int, quiet: bool = False) -> dict:
    cells = []
    for job in matrix():
        label = _label(job)
        timed = _time_backends(job, repeats)
        obj_s, obj = timed["object"]
        vec_s, vec = timed["vector"]
        diffs = diff_paths(obj, vec)
        if diffs:
            raise SystemExit(
                f"bench-core: PARITY FAILURE in {label}: object and vector "
                f"backends disagree at {len(diffs)} path(s); first: "
                f"{diffs[:3]}")
        speedup = obj_s / vec_s if vec_s > 0 else math.inf
        cells.append({"label": label, "kernel": job.names[0],
                      "policy": list(job.policy),
                      "warp": _warp_label(job.warp),
                      "object_s": round(obj_s, 4),
                      "vector_s": round(vec_s, 4),
                      "speedup": round(speedup, 3)})
        if not quiet:
            print(f"  {label:<24} object {obj_s:7.3f}s   vector "
                  f"{vec_s:7.3f}s   {speedup:5.2f}x  parity ok")
    geomean = math.exp(sum(math.log(c["speedup"]) for c in cells)
                       / len(cells))
    return {
        "bench": "core-backend",
        "scale": SCALE,
        "seed": SEED,
        "config": "small",
        "repeats": repeats,
        "cells": cells,
        "geomean_speedup": round(geomean, 3),
    }


def check(snapshot: dict, baseline: dict, tolerance: float) -> int:
    """Compare measured speedups against the committed baseline."""
    base_cells = {c["label"]: c for c in baseline["cells"]}
    failures = 0
    for cell in snapshot["cells"]:
        base = base_cells.get(cell["label"])
        if base is None:
            print(f"bench-core: cell {cell['label']} missing from baseline "
                  "(re-baseline with `make bench-core`)", file=sys.stderr)
            failures += 1
            continue
        floor = base["speedup"] * (1.0 - tolerance)
        if cell["speedup"] < floor:
            print(f"bench-core: REGRESSION in {cell['label']}: speedup "
                  f"{cell['speedup']:.2f}x < {floor:.2f}x "
                  f"(baseline {base['speedup']:.2f}x - {tolerance:.0%})",
                  file=sys.stderr)
            failures += 1
    base_geo = baseline["geomean_speedup"]
    geo_floor = base_geo * (1.0 - tolerance)
    if snapshot["geomean_speedup"] < geo_floor:
        print(f"bench-core: REGRESSION in geomean: "
              f"{snapshot['geomean_speedup']:.2f}x < {geo_floor:.2f}x "
              f"(baseline {base_geo:.2f}x - {tolerance:.0%})",
              file=sys.stderr)
        failures += 1
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="object-vs-vector core benchmark with parity assert")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON snapshot here "
                             "(default: BENCH_core.json unless --check)")
    parser.add_argument("--check", default=None, metavar="PATH",
                        help="compare speedups against a committed snapshot "
                             "instead of writing one")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per cell/backend; min is kept "
                             "(default 3)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional speedup regression for "
                             "--check (default 0.20)")
    args = parser.parse_args(argv)

    print(f"bench-core: {len(matrix())} cells, scale "
          f"{SCALE}, {args.repeats} repeat(s) per backend")
    snapshot = measure(args.repeats)
    print(f"bench-core: geomean speedup "
          f"{snapshot['geomean_speedup']:.2f}x, parity ok on all cells")

    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = check(snapshot, baseline, args.tolerance)
        if failures:
            print(f"bench-core: {failures} regression(s) vs {args.check}",
                  file=sys.stderr)
            return 1
        print(f"bench-core: no speedup regression vs {args.check} "
              f"(tolerance {args.tolerance:.0%})")
        return 0

    out = args.out or "BENCH_core.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"bench-core: wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

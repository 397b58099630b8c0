"""The repository benchmark: three workloads, every result checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-mem --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched;
``--trace 1`` runs the same work with the layer ledger installed and
prints the per-layer metrics instead.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Workloads, metrics and the reasons for each are in ``BENCHMARK.json``
and ``perfbench/README.md``.

Every run checks result digests (see ``gate.py``): a run at the default
seed against the digests pinned in ``perfbench/digests.json``, a run at
any other seed against its own earlier runs, plus a few pinned jobs
re-run after its timed work.  ``--pin`` (default seed only) rewrites the
workload's pinned digests after a run whose results all validate; use it
only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import yardstick

STARTED = yardstick.start_setup()

import argparse   # noqa: E402 - the set-up clock starts before imports
import json       # noqa: E402
import os         # noqa: E402
import subprocess  # noqa: E402
import sys        # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-mem", "sweep-compute", "serve-mixed")

#: Scratch and state directories inside the checkout (both git-ignored).
TMP_DIR = ROOT / ".perfbench-tmp"
STATE_DIR = ROOT / ".perfbench-state"

#: Set-up repetitions in fresh processes, besides the run's own set-up.
SETUP_PROBES = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="nominal run length; sets the number of passes "
                             "(sweeps) or fresh jobs (serve-mixed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the pinned digests (default seed)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_samples(args) -> list[float]:
    """Set-up times of fresh processes doing the workload's set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def probe(args) -> int:
    """One set-up, timed from process start, then torn down."""
    if args.workload == "serve-mixed":
        import serve
        _, daemon = serve.setup(ROOT, TMP_DIR, args.seed, args.seconds,
                                trace=False)
        elapsed = yardstick.setup_seconds(STARTED)
        daemon.stop()
    else:
        import sweep
        setup = sweep.Setup(args.workload, args.seed, args.seconds, TMP_DIR)
        elapsed = yardstick.setup_seconds(STARTED)
        setup.close()
    print(json.dumps({"setup_s": elapsed}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; run the "
              f"benchmark from a full checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)

    import inputs
    if args.seed is None:
        args.seed = inputs.DEFAULT_SEED
    if args.setup_probe:
        return probe(args)

    if args.pin and args.seed != inputs.DEFAULT_SEED:
        print("perfbench: --pin needs the default seed", file=sys.stderr)
        return 2
    import gate
    import metrics
    pinned = None
    if not args.pin:
        try:
            pinned = gate.load_pinned(args.workload)
        except gate.PinError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
    default_seed = args.seed == inputs.DEFAULT_SEED
    checker = gate.Gate(args.workload, args.seed,
                        pinned=pinned if default_seed else None,
                        state_dir=STATE_DIR)
    trace = bool(args.trace)
    try:
        if args.workload == "serve-mixed":
            import serve
            outcome = serve.run(ROOT, args.seed, args.seconds, trace, STARTED,
                                lambda: setup_samples(args), TMP_DIR, checker)
        else:
            import sweep
            outcome = sweep.run(args.workload, args.seed, args.seconds, trace,
                                STARTED, lambda: setup_samples(args), TMP_DIR,
                                checker)
        if pinned is not None and not default_seed:
            checker.errors.extend(gate.canary(args.workload, pinned,
                                              STATE_DIR))
    except Exception:   # noqa: BLE001 - any crash is a failed run
        traceback.print_exc()
        return 1
    finally:
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass

    if checker.ok:
        checker.save()
        if args.pin:
            gate.pin(args.workload, checker.seen)
            print(f"perfbench: pinned {len(checker.seen)} digests",
                  flush=True)
    else:
        print(f"perfbench: {len(checker.errors)} check(s) failed; first: "
              f"{checker.errors[0]}", file=sys.stderr)
    print(f"perfbench: {outcome['inputs']}", flush=True)
    print(metrics.result_line(correct=checker.ok,
                              attempted=outcome["attempted"],
                              failed=outcome["failed"],
                              values=outcome["values"], trace=trace),
          flush=True)
    return 0 if checker.ok else 1


if __name__ == "__main__":
    sys.exit(main())

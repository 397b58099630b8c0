"""The correctness gate: every result is validated and digest-checked.

A result's digest is :func:`repro.verify.golden.result_digest` over its
:func:`~repro.verify.golden.canonical_result` rendering, keyed by the
job's identity: a hash of its inputs without the simulator's version salt
(:func:`inputs.job_identity`), so a version bump that leaves results alone
keeps every pin in force, and one that changes them fails the gate.

For the default seed the expected digests are pinned in ``digests.json``
next to this file, and every job of the run must have a pin: a missing or
unreadable file, or a job whose key is not pinned (a new config field, a
changed job list), fails the run instead of passing unchecked.  A run at
any other seed re-runs a few pinned jobs after its timed work (the
canary) and checks them against their pins.  Every run also records its
digests under ``.perfbench-state/`` in the checkout, per seed, and every
later run with that seed must agree with them.  A mismatch names the
first job that differs, in the run's job order.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import inputs
from repro.harness import engine
from repro.harness.jobs import SimJob
from repro.harness.validate import RunValidationError, validate_run
from repro.sim.stats import RunResult
from repro.verify.golden import canonical_result, result_digest

#: Hex digits kept of each job key and result digest.
KEY_LEN = 24

PINNED = Path(__file__).resolve().parent / "digests.json"

#: Pinned jobs re-run after the timed work of a run at any other seed, so
#: every run checks some pinned digests.
CANARY_JOBS = 6


class PinError(RuntimeError):
    """The pinned digests cannot be read."""


def job_key(job: SimJob) -> str:
    canonical = json.dumps(inputs.job_identity(job), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:KEY_LEN]


def digest_of(result: RunResult) -> str:
    return result_digest(canonical_result(result.to_dict()))[:KEY_LEN]


def load_pinned(workload: str) -> dict[str, str]:
    """The pinned digests of one workload (default seed)."""
    try:
        pinned = json.loads(PINNED.read_text(encoding="utf-8"))[workload]
    except (OSError, KeyError, ValueError) as error:
        raise PinError(f"no pinned digests for {workload} in {PINNED.name}: "
                       f"{type(error).__name__}: {error}") from error
    if not isinstance(pinned, dict) or not pinned:
        raise PinError(f"no pinned digests for {workload} in {PINNED.name}")
    return pinned


class Gate:
    """Digest bookkeeping for one run of one workload.

    ``pinned`` is ``None`` for a seed without pins; otherwise every job
    checked must have a pinned digest.
    """

    def __init__(self, workload: str, seed: int, *,
                 pinned: dict[str, str] | None, state_dir: Path) -> None:
        self.expected = pinned
        self.store = state_dir / f"digests-{workload}-{seed}.json"
        try:
            self.recorded = json.loads(self.store.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.recorded = {}
        self.seen: dict[str, str] = {}
        self.errors: list[str] = []

    def check(self, label: str, job: SimJob, result: RunResult | None) -> bool:
        """Validate one result and compare its digest; False on failure."""
        if result is None:
            self.errors.append(f"{label}: no result")
            return False
        try:
            validate_run(result)
        except RunValidationError as error:
            self.errors.append(f"{label}: invalid result: {error}")
            return False
        key = job_key(job)
        digest = digest_of(result)
        if self.expected is not None and key not in self.expected:
            self.errors.append(f"{label}: no pinned digest for job key {key} "
                               f"(re-pin with --pin if the job list changed)")
            return False
        want = ((self.expected or {}).get(key) or self.seen.get(key)
                or self.recorded.get(key))
        if want is not None and want != digest:
            self.errors.append(f"{label}: result digest {digest} differs "
                               f"from expected {want}")
            return False
        self.seen[key] = digest
        return True

    @property
    def ok(self) -> bool:
        return not self.errors

    def save(self) -> None:
        """Record this run's digests for later runs of the same seed."""
        if not self.ok:
            return
        merged = dict(self.recorded)
        merged.update(self.seen)
        self.store.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.store.with_name(self.store.name + f".tmp-{os.getpid()}")
        tmp.write_text(json.dumps(merged, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.store)


def canary(workload: str, pinned: dict[str, str],
           state_dir: Path) -> list[str]:
    """Re-run ``CANARY_JOBS`` pinned jobs, spread over the pinned list, in
    this process; return the checks that failed."""
    jobs = inputs.pinned_jobs(workload)
    picked = jobs[::max(1, len(jobs) // CANARY_JOBS)][:CANARY_JOBS]
    gate = Gate(workload, inputs.DEFAULT_SEED, pinned=pinned,
                state_dir=state_dir)
    report = engine.run_batch(picked, workers=1)
    for job, outcome in zip(picked, report.outcomes):
        gate.check(f"pinned canary {inputs.job_label(job)}", job,
                   outcome.result)
    return gate.errors


def pin(workload: str, digests: dict[str, str]) -> None:
    """Replace the pinned digests of one workload in ``digests.json``."""
    try:
        pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        pinned = {}
    pinned[workload] = dict(sorted(digests.items()))
    PINNED.write_text(json.dumps(pinned, indent=0, sort_keys=True) + "\n",
                      encoding="utf-8")

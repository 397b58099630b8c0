"""Backend-parity sweep: the object core vs the vector core, bitwise.

The vector backend (:mod:`repro.sim.vector`) re-implements the simulator's
hot cycle loop in array form under a hard contract: for every supported
configuration it must produce a :class:`~repro.sim.stats.RunResult`
identical to the object reference core — statistics, windowed timeline and
telemetry alike.  This module is the layer of ``repro-verify`` that
enforces the contract.

The sweep re-runs the pinned golden matrix (restricted to the cells the
vector core supports) once per backend, cache-bypassing, and diffs the two
result renderings with the same bitwise lane classifier the golden gate
uses.  Any leaf difference — a counter, a timeline window, a telemetry
event — fails the sweep.

Relationship to the other layers:

* **golden** pins each cell against a *stored* baseline (catches drift
  over time);
* **backend** pins the two cores against *each other* (catches the vector
  core diverging from the reference, whatever the baseline says);
* the fuzzer's ``backend`` invariant extends the same check to randomly
  generated kernels and configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from ..harness.engine import run_batch
from ..harness.jobs import SimJob
from ..sim.vector import vector_runs
from .golden import (DRIFT_LANES, GoldenCell, GoldenError, canonical_result,
                     classify_drift, golden_matrix)


def parity_matrix(tier: str = "smoke") -> list[GoldenCell]:
    """The golden matrix restricted to vector-capable cells.

    Today that is every cell — all five warp schedulers, every CTA
    policy, both hardware classes, the telemetry riders.  The filter
    keeps the sweep honest should a cell the vector core cannot run
    (which ``simulate()`` would quietly route to the object core) join
    the matrix.
    """
    return [cell for cell in golden_matrix(tier)
            if vector_runs(cell.job.warp, cell.job.config)]


@dataclass
class ParityVerdict:
    """What the sweep concluded about one cell.

    ``status``: ``ok`` | ``diff`` (the cores disagree) | ``error``
    (one of the runs itself failed).
    """

    label: str
    fingerprint: str
    status: str
    lanes: list[str] = field(default_factory=list)
    diffs: dict[str, list[tuple[str, Any, Any]]] = field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_record(self) -> dict[str, Any]:
        """JSONL triage-artifact rendering (see repro.verify.artifacts)."""
        record: dict[str, Any] = {
            "kind": "backend",
            "label": self.label,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "lanes": list(self.lanes),
        }
        if self.error:
            record["error"] = self.error
        if self.diffs:
            record["diffs"] = {
                lane: [{"path": path, "object": a, "vector": b}
                       for path, a, b in entries[:20]]
                for lane, entries in self.diffs.items()
            }
        return record


@dataclass
class ParityReport:
    """Outcome of one backend-parity sweep."""

    tier: str
    verdicts: list[ParityVerdict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(verdict.ok for verdict in self.verdicts)

    def count(self, status: str) -> int:
        return sum(1 for v in self.verdicts if v.status == status)

    def failures(self) -> list[ParityVerdict]:
        return [v for v in self.verdicts if not v.ok]

    def summary_line(self) -> str:
        parts = [f"{self.count('ok')} ok"]
        for status in ("diff", "error"):
            if self.count(status):
                parts.append(f"{self.count(status)} {status}")
        return (f"backend[{self.tier}]: {len(self.verdicts)} cell(s), "
                + ", ".join(parts) + f" in {self.elapsed:.1f}s")


def verify_backends(cells: Sequence[GoldenCell], *, workers: int = 1,
                    progress: Callable[[int, int], None] | None = None,
                    ) -> ParityReport:
    """Run every cell on both backends and diff the results bitwise.

    Both batches bypass the persistent result cache — the sweep exists to
    compare two *executions*, and the cache would collapse them into one
    (``backend`` is deliberately not fingerprint-relevant).
    """
    import time
    started = time.perf_counter()
    labels = [cell.label for cell in cells]
    if len(labels) != len(set(labels)):
        raise GoldenError("duplicate labels in the parity matrix")
    for cell in cells:
        if not vector_runs(cell.job.warp, cell.job.config):
            raise GoldenError(
                f"cell {cell.label!r} (warp {cell.job.warp!r}) cannot run "
                "on the vector backend; build the sweep with "
                "parity_matrix()")

    report = ParityReport(tier="parity")
    object_batch = run_batch(
        [replace(cell.job, backend="object") for cell in cells],
        workers=workers, cache=None, progress=progress)
    vector_batch = run_batch(
        [replace(cell.job, backend="vector") for cell in cells],
        workers=workers, cache=None, progress=progress)
    for cell, obj, vec in zip(cells, object_batch.outcomes,
                              vector_batch.outcomes):
        fingerprint = cell.job.fingerprint()
        errors = []
        if obj.result is None:
            errors.append(f"object: {obj.status}: {obj.error}")
        if vec.result is None:
            errors.append(f"vector: {vec.status}: {vec.error}")
        if errors:
            report.verdicts.append(ParityVerdict(
                cell.label, fingerprint, "error",
                error="; ".join(errors)))
            continue
        drift = classify_drift(canonical_result(obj.result.to_dict()),
                               canonical_result(vec.result.to_dict()))
        if drift:
            report.verdicts.append(ParityVerdict(
                cell.label, fingerprint, "diff",
                lanes=[lane for lane in DRIFT_LANES if lane in drift],
                diffs=drift))
        else:
            report.verdicts.append(ParityVerdict(cell.label, fingerprint,
                                                 "ok"))
    report.elapsed = time.perf_counter() - started
    return report


__all__ = ["ParityReport", "ParityVerdict", "parity_matrix",
           "verify_backends"]

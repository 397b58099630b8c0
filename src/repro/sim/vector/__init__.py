"""``repro.sim.vector`` — the array-oriented (vector) simulator backend.

The object core (:mod:`repro.sim.gpu` / :mod:`repro.sim.sm`) advances the
machine one Python object at a time: every warp is a ``Warp`` instance,
every scheduler heap entry a ``(key, epoch, Warp)`` tuple, every ALU
completion its own ``EventQueue`` callback.  That representation is the
*reference*: easy to read, easy to instrument, and the thing every other
layer (refmodel, goldens, fuzzer) validates against.

This package re-implements the hot cycle loop in struct-of-arrays form:

* **Columns, not objects** (:mod:`.columns`) — warp state lives in parallel
  per-SM columns (``state``/``pc``/``state_since``/``t_*``/``last_issue``)
  indexed by a dense *slot* id, with a numpy structured-array view for
  analysis tooling.  ``Warp`` objects still exist (policies and results
  read them at CTA completion) but are written back only at sync points.
* **Int-packed ready heaps** (:mod:`.sched`) — the per-scheduler lazy
  heaps hold single machine integers encoding ``(priority key, slot)``
  instead of tuples holding Python objects, and staleness is a column
  compare instead of an epoch attribute read.
* **A batched wake calendar** (:mod:`.core` / :mod:`.gpu`) — ALU/SHARED
  completions and L1-hit load wakeups are grouped per wake cycle in one
  ``{cycle: [packed sm/slot]}`` calendar drained at the loop top, instead
  of one ``EventQueue`` entry per instruction.  The event queue keeps only
  genuine memory-system traffic, which shrinks it by orders of magnitude
  on compute-heavy kernels.

The contract is **bitwise parity**: for every supported configuration the
vector backend must produce a ``RunResult`` identical to the object core —
stats, timeline and telemetry.  ``repro-verify backend`` and the fuzzer's
``backend`` invariant enforce it; see docs/PERFORMANCE.md ("Backends").

Scope: the vector core supports all five warp schedulers (``lrr``,
``gto``, ``baws``, ``two-level``, ``swl``) and every CTA policy (policies
sit above the SM and are shared).  It has no checkpoint/resume or
run-saboteur riders and rejects custom warp-scheduler factories;
:func:`~repro.harness.runner.simulate` routes such requests to the
object core, and :func:`vector_supported` / :func:`vector_runs` report
the split.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..gpu import SimulationError
from .sched import MAX_LAST_ISSUE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import GPUConfig

#: Warp schedulers the vector core reproduces bitwise.
VECTOR_WARP_SCHEDULERS = frozenset({"lrr", "gto", "baws", "two-level",
                                    "swl"})


class VectorBackendError(SimulationError):
    """The vector backend cannot run this configuration (unsupported
    scheduler, missing numpy, or a packed-key capacity limit)."""


def ensure_numpy():
    """Import and return numpy, or raise an actionable error.

    The vector backend's analysis views (:meth:`WarpColumns.snapshot`) are
    numpy structured arrays, so the backend declares numpy as a hard
    dependency up front — at ``VectorGPU`` construction, not at first use —
    and with a remediation hint instead of a bare ImportError traceback.
    """
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise VectorBackendError(
            "the vector backend requires numpy, which is not installed; "
            "install numpy or re-run with --backend object"
        ) from exc
    return numpy


def vector_supported(warp: object) -> bool:
    """True if the vector backend supports this warp-scheduler argument.

    Accepts the harness' descriptors (a name or the ``("swl", K)`` tuple)
    and ``simulate()``'s arguments (a name or a zero-arg factory).  Of
    the factories only :func:`~repro.core.warp_schedulers.swl_factory`'s
    qualify; any other is custom and runs on the object core only.
    """
    if isinstance(warp, str):
        return warp in VECTOR_WARP_SCHEDULERS
    if isinstance(warp, tuple):
        return (len(warp) == 2 and warp[0] == "swl"
                and isinstance(warp[1], int))
    return getattr(warp, "warp_limit", None) is not None


def vector_runs(warp: object, config: "GPUConfig") -> bool:
    """True if the vector core can run this warp-scheduler argument on
    this hardware config: a supported scheduler, and ``max_cycles``
    within the packed-key range."""
    return (vector_supported(warp)
            and config.max_cycles <= MAX_LAST_ISSUE)


from .gpu import VectorGPU  # noqa: E402  (circular-free; re-export)

__all__ = [
    "VECTOR_WARP_SCHEDULERS",
    "VectorBackendError",
    "VectorGPU",
    "ensure_numpy",
    "vector_runs",
    "vector_supported",
]

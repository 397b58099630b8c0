"""Run-result validation: the invariants every simulation must satisfy.

:func:`validate_run` checks a finished :class:`RunResult` against the
conservation laws and sanity bounds the model guarantees.  The test suite
applies it broadly, and users extending the simulator can call it on their
own runs to catch bookkeeping bugs early.
"""

from __future__ import annotations

from ..sim.stats import RunResult

#: Simulator cores selectable via ``--backend`` / ``SimJob.backend``.
#: ``object`` is the per-object reference core; ``vector`` the
#: array-oriented core (see :mod:`repro.sim.vector`).
VALID_BACKENDS = ("object", "vector")

#: The core a job, design environment, CLI or ``simulate()`` call uses
#: when it names none.  Requests the vector core cannot honour still run
#: on the object core (see :func:`repro.harness.runner.simulate`).
DEFAULT_BACKEND = "vector"


class RunValidationError(AssertionError):
    """A RunResult violated a simulator invariant."""


def validate_backend(backend: str) -> str:
    """Check a backend name; returns it unchanged.

    Raises ``ValueError`` with the accepted names — callers (SimJob,
    the CLIs) surface this directly, so keep it actionable.
    """
    if backend not in VALID_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose one of "
            f"{'/'.join(VALID_BACKENDS)}")
    return backend


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise RunValidationError(message)


def validate_run(result: RunResult) -> None:
    """Raise :class:`RunValidationError` if any invariant is violated.

    Checked invariants:

    * every kernel finished, and per-kernel instruction counts sum to the
      machine total (which equals the per-SM sum);
    * demand-traffic conservation: L1 misses == L2 accesses, L2 load misses
      == DRAM reads, store counts match at L1 and L2;
    * cache counter consistency (accesses = hits + misses + merges, rates
      within [0, 1]);
    * cycle counts positive and IPC consistent;
    * warp-state time integrals are non-negative.
    """
    _check(result.cycles > 0, "run has no cycles")
    _check(result.instructions > 0, "run issued no instructions")
    _check(abs(result.ipc - result.instructions / result.cycles) < 1e-9,
           "IPC inconsistent with instructions/cycles")
    _check(sum(result.issued_by_sm) == result.instructions,
           "per-SM issue counts do not sum to the machine total")

    kernel_total = 0
    for name, stats in result.kernels.items():
        _check(stats.finish_cycle is not None, f"kernel {name!r} unfinished")
        _check(stats.instructions > 0, f"kernel {name!r} issued nothing")
        kernel_total += stats.instructions
        for field in ("ready_wait", "alu_wait", "mem_wait", "barrier_wait"):
            _check(getattr(stats, field) >= 0,
                   f"kernel {name!r}: negative {field}")
    _check(kernel_total == result.instructions,
           "per-kernel instruction counts do not sum to the machine total")

    for label, cache in (("L1", result.l1), ("L2", result.l2)):
        _check(cache.accesses == cache.hits + cache.misses + cache.merges,
               f"{label}: accesses != hits + misses + merges")
        _check(0.0 <= cache.miss_rate <= 1.0, f"{label}: miss rate out of range")
        _check(cache.write_hits <= cache.write_accesses,
               f"{label}: more write hits than write accesses")

    _check(result.l2.accesses == result.l1.misses + result.l1.prefetches,
           "L1 misses (+prefetches) and L2 accesses disagree "
           "(demand-fetch conservation)")
    _check(result.dram.reads == result.l2.misses,
           "L2 misses and DRAM reads disagree")
    _check(result.l2.write_accesses
           == result.l1.write_accesses - result.l1.stores_coalesced,
           "store write-through counts disagree between L1 and L2")
    _check(result.dram.writes <= result.l2.write_accesses,
           "DRAM writes exceed the stores that reached L2")
    _check(0.0 <= result.dram.row_hit_rate <= 1.0,
           "DRAM row hit rate out of range")

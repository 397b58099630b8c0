"""Trace-level instruction set.

The simulator is trace-driven: each warp executes a straight-line list of
:class:`Instruction` objects.  Control flow, register identities and SIMT
divergence are resolved when the trace is built (``repro.workloads``), so an
instruction carries only what the timing model needs:

* ``ALU``       — occupies the warp for ``latency`` cycles (dependent chain);
* ``SHARED``    — shared-memory access; like ALU but with the shared-memory
                  latency (bank conflicts are folded into ``latency`` by the
                  trace builder);
* ``LD_GLOBAL`` — global load; ``lines`` holds the post-coalescer 128-byte
                  line addresses; the warp blocks until all lines return;
* ``ST_GLOBAL`` — global store; write-through traffic, the warp resumes once
                  the LD/ST unit has accepted every transaction;
* ``BARRIER``   — CTA-wide barrier;
* ``EXIT``      — warp termination (must be the last instruction).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence


class Op(IntEnum):
    """Trace instruction kinds (see the module docstring for semantics)."""

    ALU = 0
    SHARED = 1
    LD_GLOBAL = 2
    ST_GLOBAL = 3
    BARRIER = 4
    EXIT = 5


_MEMORY_OPS = (Op.LD_GLOBAL, Op.ST_GLOBAL)


@dataclass(frozen=True, slots=True)
class Instruction:
    """A single trace instruction.

    ``lines`` is the tuple of distinct 128-byte line addresses the access
    touches after coalescing (empty for non-memory ops).  ``latency`` is the
    dependent-issue latency for ALU/SHARED ops and ignored for memory ops
    (their timing comes from the memory hierarchy).
    """

    op: Op
    latency: int = 1
    lines: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.op in _MEMORY_OPS:
            if not self.lines:
                raise ValueError(f"{self.op.name} instruction needs at least one line")
            if len(set(self.lines)) != len(self.lines):
                raise ValueError("memory instruction lines must be distinct (coalesced)")
        elif self.lines:
            raise ValueError(f"{self.op.name} instruction cannot carry line addresses")
        if self.latency < 1:
            raise ValueError("latency must be >= 1")

    @property
    def is_memory(self) -> bool:
        return self.op in _MEMORY_OPS


# Convenience constructors -------------------------------------------------

def alu(latency: int = 4) -> Instruction:
    """An arithmetic instruction with the given dependent latency."""
    return Instruction(Op.ALU, latency=latency)


def shared(latency: int = 24) -> Instruction:
    """A shared-memory access (latency includes any bank-conflict penalty)."""
    return Instruction(Op.SHARED, latency=latency)


def load(lines: Iterable[int]) -> Instruction:
    """A global load touching the given coalesced line addresses."""
    return Instruction(Op.LD_GLOBAL, lines=tuple(lines))


def store(lines: Iterable[int]) -> Instruction:
    """A global store touching the given coalesced line addresses."""
    return Instruction(Op.ST_GLOBAL, lines=tuple(lines))


def barrier() -> Instruction:
    return Instruction(Op.BARRIER)


def exit_() -> Instruction:
    return Instruction(Op.EXIT)


def validate_program(program: Sequence[Instruction]) -> None:
    """Check the static well-formedness rules for a warp trace.

    A valid program is non-empty, ends with exactly one EXIT (its last
    instruction), and contains no EXIT anywhere else.
    """
    if not program:
        raise ValueError("warp program must not be empty")
    if program[-1].op is not Op.EXIT:
        raise ValueError("warp program must end with EXIT")
    for inst in program[:-1]:
        if inst.op is Op.EXIT:
            raise ValueError("EXIT may only appear as the final instruction")


# Column traces -------------------------------------------------------------

#: Build-protocol flag: while ``COLUMN_MODE.on`` is true, a column-capable
#: trace builder (``repro.workloads.programs.TraceBuilder``) returns a
#: :class:`ColumnProgram` from ``build()`` instead of materialising
#: ``Instruction`` objects.  Set only by
#: :meth:`repro.sim.kernel.Kernel.build_warp_columns` around the builder
#: call.  Thread-local, so a column build in one thread (the service's
#: in-thread worker) never leaks into an ``Instruction`` build in another.
COLUMN_MODE = threading.local()


def packed_latencies(lat: Sequence[int]) -> "bytes | tuple[int, ...]":
    """A latency column as ``bytes`` when every latency fits a byte (the
    common case: a quarter of the memory of a tuple of ints), else as a
    tuple.  The vector core indexes both alike."""
    try:
        return bytes(lat)
    except ValueError:
        return tuple(lat)


class ColumnProgram:
    """Column (structure-of-arrays) form of a validated warp trace.

    The vector backend's per-warp representation: one ``bytes`` of opcode
    values and a parallel latency column (see :func:`packed_latencies`),
    both indexable by pc, plus ``lines``: the coalesced line tuple of each
    memory row, keyed by its pc.  Memory rows are a minority of a trace,
    so the sparse mapping holds a fraction of the references a per-row
    tuple would.  Carries exactly the fields the timing model reads —
    building one skips every ``Instruction`` allocation and
    per-instruction validation, which is a measurable share of short-run
    wall clock.
    """

    __slots__ = ("ops", "lat", "lines")

    def __init__(self, ops: bytes, lat: "bytes | tuple[int, ...]",
                 lines: dict[int, tuple[int, ...]]) -> None:
        self.ops = ops
        self.lat = lat
        self.lines = lines

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return f"ColumnProgram({len(self.ops)} instructions)"


def program_columns(program: Sequence[Instruction]) -> ColumnProgram:
    """Column form of an ``Instruction`` sequence.

    The fallback for program builders that are not column-capable (replay
    kernels, hand-written builders): the instructions are materialised as
    usual and converted.  ``program`` must already be validated.
    """
    return ColumnProgram(
        bytes(inst.op for inst in program),
        packed_latencies([inst.latency for inst in program]),
        {pc: inst.lines for pc, inst in enumerate(program) if inst.lines})

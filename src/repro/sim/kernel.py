"""Kernel (grid) description and occupancy arithmetic.

A :class:`Kernel` is the static description of a launch: how many CTAs, how
many warps per CTA, the per-thread/per-CTA resource appetite, and a builder
that produces each warp's instruction trace on demand (traces are built
lazily at CTA dispatch so large grids never materialise in memory at once).

Occupancy — the maximum number of CTAs of this kernel resident on one SM —
is the min over four hardware limits (CTA slots, warp contexts, registers,
shared memory), exactly the quantity the paper's schedulers manipulate.

Column traces of suite kernels are memoized per process (the *trace
memo*): a sweep runs each (kernel, scale, seed) in many cells, and every
cell used to rebuild the same traces.  Only kernels that carry a
``memo_key`` (set by :func:`repro.workloads.suite.make_kernel`, whose
traces are a pure function of that key) are memoized; replay, fuzz and
hand-built kernels always rebuild.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Sequence

from . import isa as _isa
from .config import GPUConfig
from .isa import ColumnProgram, Instruction, program_columns, validate_program

ProgramBuilder = Callable[[int, int], Sequence[Instruction]]

#: Budget of the trace memo in retained trace rows (instructions), summed
#: over every memoized warp.  Least recently used kernels are evicted past
#: it, and a kernel whose grid alone would exceed it is never memoized, so
#: a long-lived service worker's memo stays bounded: suite kernels retain
#: 2.4-154 bytes per row (docs/PERFORMANCE.md), so at most ~150 MB.  Sized
#: above the largest working set the benchmark sweeps keep (0.91M rows).
TRACE_MEMO_ROWS = 1_000_000

#: Cap on memoized kernel keys, which bounds the empty entries left by
#: kernels that overran the row budget (every other entry holds >= 1 row).
TRACE_MEMO_KEYS = 1024


class _MemoEntry:
    """One kernel's memoized traces: ``programs`` maps ``(cta_id,
    warp_idx)`` to its :class:`ColumnProgram` (None once the kernel proved
    larger than the budget), ``rows`` is their total length, and ``intern``
    shares equal op and latency columns and equal line tuples between the
    kernel's warps."""

    __slots__ = ("programs", "rows", "intern")

    def __init__(self) -> None:
        self.programs: dict[tuple[int, int], ColumnProgram] | None = {}
        self.rows = 0
        self.intern: dict = {}


_MEMO: "OrderedDict[Hashable, _MemoEntry]" = OrderedDict()
_MEMO_LOCK = threading.Lock()
_memo_rows = 0


def clear_trace_memo() -> None:
    """Drop every memoized trace."""
    global _memo_rows
    with _MEMO_LOCK:
        _MEMO.clear()
        _memo_rows = 0


def trace_memo_stats() -> dict[str, int]:
    """Current memo footprint: kernel keys, warps and retained rows."""
    with _MEMO_LOCK:
        warps = sum(len(entry.programs) for entry in _MEMO.values()
                    if entry.programs is not None)
        return {"keys": len(_MEMO), "warps": warps, "rows": _memo_rows}


def _memo_get(key: Hashable, index: tuple[int, int]) -> ColumnProgram | None:
    with _MEMO_LOCK:
        entry = _MEMO.get(key)
        if entry is None or entry.programs is None:
            return None
        _MEMO.move_to_end(key)
        return entry.programs.get(index)


def _memo_put(kernel: "Kernel", index: tuple[int, int],
              program: ColumnProgram) -> ColumnProgram:
    """Memoize one freshly built trace; returns the (compacted) program
    the caller should use."""
    global _memo_rows
    key = kernel.memo_key
    rows = len(program.ops)
    with _MEMO_LOCK:
        entry = _MEMO.get(key)
        if entry is None:
            # Size the grid from its first built warp before admitting it.
            grid = kernel.num_ctas * kernel.warps_per_cta
            if rows * grid > TRACE_MEMO_ROWS:
                return program
            entry = _MEMO[key] = _MemoEntry()
        else:
            _MEMO.move_to_end(key)
        programs = entry.programs
        if programs is None:
            return program
        raced = programs.get(index)
        if raced is not None:     # another thread built it meanwhile
            return raced
        if entry.rows + rows > TRACE_MEMO_ROWS:
            # Larger than the estimate said: give the kernel up for good.
            _memo_rows -= entry.rows
            entry.programs = None
            entry.rows = 0
            entry.intern = {}
            return program
        share = entry.intern.setdefault
        program = programs[index] = ColumnProgram(
            share(program.ops, program.ops), share(program.lat, program.lat),
            {pc: share(lines, lines) for pc, lines in program.lines.items()})
        entry.rows += rows
        _memo_rows += rows
        while _memo_rows > TRACE_MEMO_ROWS or len(_MEMO) > TRACE_MEMO_KEYS:
            _, evicted = _MEMO.popitem(last=False)
            _memo_rows -= evicted.rows
        return program


class KernelResourceError(ValueError):
    """Raised when a kernel cannot fit even one CTA on an SM."""


class Kernel:
    """Static description of one kernel launch."""

    __slots__ = ("name", "num_ctas", "warps_per_cta", "regs_per_thread",
                 "shmem_per_cta", "_builder", "tags", "memo_key")

    def __init__(self, name: str, num_ctas: int, warps_per_cta: int,
                 program_builder: ProgramBuilder, *, regs_per_thread: int = 20,
                 shmem_per_cta: int = 0, tags: tuple[str, ...] = ()) -> None:
        if num_ctas < 1:
            raise ValueError("num_ctas must be >= 1")
        if warps_per_cta < 1:
            raise ValueError("warps_per_cta must be >= 1")
        if regs_per_thread < 0 or shmem_per_cta < 0:
            raise ValueError("resource requirements must be non-negative")
        self.name = name
        self.num_ctas = num_ctas
        self.warps_per_cta = warps_per_cta
        self.regs_per_thread = regs_per_thread
        self.shmem_per_cta = shmem_per_cta
        self._builder = program_builder
        self.tags = tags
        #: Trace-memo key; set only where the builder is a pure function
        #: of it (see the module docstring).
        self.memo_key: Hashable | None = None

    def __repr__(self) -> str:
        return (f"Kernel({self.name!r}, ctas={self.num_ctas}, "
                f"warps_per_cta={self.warps_per_cta})")

    # ------------------------------------------------------------------ #
    def build_warp_program(self, cta_id: int, warp_idx: int) -> list[Instruction]:
        """Build (and validate) the trace of one warp."""
        if not 0 <= cta_id < self.num_ctas:
            raise ValueError(f"cta_id {cta_id} out of range")
        if not 0 <= warp_idx < self.warps_per_cta:
            raise ValueError(f"warp_idx {warp_idx} out of range")
        program = list(self._builder(cta_id, warp_idx))
        validate_program(program)
        return program

    def build_warp_columns(self, cta_id: int, warp_idx: int) -> ColumnProgram:
        """Column form of one warp's trace (the vector backend's input).

        A column-capable builder (``TraceBuilder``) skips ``Instruction``
        materialisation entirely; any other builder falls back to the
        normal build-and-validate path followed by a conversion, so
        replay kernels and custom builders work unchanged.  Both paths
        encode the same (op, latency, lines) rows — the cores therefore
        execute the identical trace either way.  Kernels with a
        ``memo_key`` are served from the per-process trace memo.
        """
        if not 0 <= cta_id < self.num_ctas:
            raise ValueError(f"cta_id {cta_id} out of range")
        if not 0 <= warp_idx < self.warps_per_cta:
            raise ValueError(f"warp_idx {warp_idx} out of range")
        key = self.memo_key
        if key is not None:
            program = _memo_get(key, (cta_id, warp_idx))
            if program is not None:
                return program
        mode = _isa.COLUMN_MODE
        mode.on = True
        try:
            program = self._builder(cta_id, warp_idx)
        finally:
            mode.on = False
        if type(program) is not ColumnProgram:
            program = list(program)
            validate_program(program)
            program = program_columns(program)
        if key is not None:
            program = _memo_put(self, (cta_id, warp_idx), program)
        return program

    # ------------------------------------------------------------------ #
    def regs_per_cta(self, config: GPUConfig) -> int:
        return self.regs_per_thread * self.warps_per_cta * config.warp_size

    def max_ctas_per_sm(self, config: GPUConfig) -> int:
        """Hardware occupancy limit for this kernel (the paper's 'maximum')."""
        limit = min(config.max_ctas_per_sm,
                    config.max_warps_per_sm // self.warps_per_cta)
        regs = self.regs_per_cta(config)
        if regs:
            limit = min(limit, config.registers_per_sm // regs)
        if self.shmem_per_cta:
            limit = min(limit, config.shared_mem_per_sm // self.shmem_per_cta)
        if limit < 1:
            raise KernelResourceError(
                f"kernel {self.name!r} cannot fit a single CTA on an SM")
        return limit

    def occupancy_breakdown(self, config: GPUConfig) -> dict[str, int]:
        """Per-resource CTA limits (for the configuration tables in E12)."""
        breakdown = {
            "cta_slots": config.max_ctas_per_sm,
            "warps": config.max_warps_per_sm // self.warps_per_cta,
        }
        regs = self.regs_per_cta(config)
        breakdown["registers"] = (config.registers_per_sm // regs) if regs else config.max_ctas_per_sm
        breakdown["shared_mem"] = (
            config.shared_mem_per_sm // self.shmem_per_cta
            if self.shmem_per_cta else config.max_ctas_per_sm
        )
        return breakdown

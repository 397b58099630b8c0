"""Trace builder: composes per-warp instruction lists.

``TraceBuilder`` is a tiny fluent helper the benchmark factories use to
assemble warp programs; it enforces the ISA's well-formedness rules (the
same checks ``Instruction`` and :func:`repro.sim.isa.validate_program`
apply) as the rows are appended, which makes two build outputs possible
from one accumulation:

* the classic ``list[Instruction]`` (with non-memory instructions
  *interned* — ``Instruction`` is a frozen value type, so the thousands
  of identical ALU/EXIT objects a suite kernel used to allocate per warp
  collapse into shared singletons);
* a :class:`repro.sim.isa.ColumnProgram` when the build runs under
  ``Kernel.build_warp_columns`` (the vector backend's path), skipping
  ``Instruction`` materialisation entirely.

Both encode the identical (op, latency, lines) rows, so the simulator
cores execute the same trace either way.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..sim import isa as _isa
from ..sim.isa import ColumnProgram, Instruction, Op, packed_latencies

#: Interned non-memory instructions, keyed by ``(op, latency)``.  Bounded
#: in practice by the handful of distinct latencies the factories use.
_NONMEM_CACHE: dict[tuple[Op, int], Instruction] = {}


class TraceBuilder:
    """Accumulates instructions for one warp."""

    def __init__(self, *, alu_latency: int = 4, shared_latency: int = 24) -> None:
        if alu_latency < 1 or shared_latency < 1:
            raise ValueError("latencies must be >= 1")
        self._alu_latency = alu_latency
        self._shared_latency = shared_latency
        self._ops: list[Op] = []
        self._lat: list[int] = []
        #: Coalesced lines of the memory rows only, keyed by pc.
        self._lines: dict[int, tuple[int, ...]] = {}
        self._built = False
        self._columns = getattr(_isa.COLUMN_MODE, "on", False)

    # ------------------------------------------------------------------ #
    def alu(self, count: int = 1, latency: int | None = None) -> "TraceBuilder":
        latency = latency if latency is not None else self._alu_latency
        if latency < 1:
            raise ValueError("latency must be >= 1")
        self._ops.extend((Op.ALU,) * count)
        self._lat.extend((latency,) * count)
        return self

    def shared(self, count: int = 1, latency: int | None = None) -> "TraceBuilder":
        latency = latency if latency is not None else self._shared_latency
        if latency < 1:
            raise ValueError("latency must be >= 1")
        self._ops.extend((Op.SHARED,) * count)
        self._lat.extend((latency,) * count)
        return self

    def _memory(self, op: Op, lines: int | Iterable[int]) -> "TraceBuilder":
        if isinstance(lines, int):
            lines = (lines,)
        else:
            lines = tuple(lines)
        if not lines:
            raise ValueError(f"{op.name} instruction needs at least one line")
        if len(set(lines)) != len(lines):
            raise ValueError("memory instruction lines must be distinct (coalesced)")
        self._lines[len(self._ops)] = lines
        self._ops.append(op)
        self._lat.append(1)
        return self

    def load(self, lines: int | Iterable[int]) -> "TraceBuilder":
        return self._memory(Op.LD_GLOBAL, lines)

    def load_strided(self, base_byte: int, stride_elems: int, *,
                     lanes: int = 32, elem_size: int = 4) -> "TraceBuilder":
        """A byte-level warp access, coalesced by the hardware rules.

        Lane *i* reads ``base_byte + i * stride_elems * elem_size``; the
        coalescer collapses the 32 lanes into the minimal set of 128-byte
        transactions (1 for unit stride, up to 32 for scattered strides).
        This is the entry point for users thinking in addresses rather
        than cache lines.
        """
        from ..mem.coalescer import warp_access
        lines = warp_access(base_byte, stride_elems, lanes=lanes,
                            elem_size=elem_size)
        return self._memory(Op.LD_GLOBAL, lines)

    def load_each(self, lines: Iterable[int],
                  alu_between: int = 0) -> "TraceBuilder":
        """One single-line load per element, optionally interleaved with ALU."""
        for line in lines:
            self.load(line)
            if alu_between:
                self.alu(alu_between)
        return self

    def store(self, lines: int | Iterable[int]) -> "TraceBuilder":
        return self._memory(Op.ST_GLOBAL, lines)

    def barrier(self) -> "TraceBuilder":
        self._ops.append(Op.BARRIER)
        self._lat.append(1)
        return self

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._ops)

    def build(self) -> "list[Instruction] | ColumnProgram":
        """Append EXIT and return the finished program.

        Well-formedness is enforced as rows are appended (the fluent API
        cannot express an interior EXIT), so the output always satisfies
        :func:`repro.sim.isa.validate_program` — which
        ``Kernel.build_warp_program`` re-checks independently.
        """
        if self._built:
            raise RuntimeError("TraceBuilder.build() may only be called once")
        self._built = True
        ops = self._ops
        lat = self._lat
        mem_lines = self._lines
        ops.append(Op.EXIT)
        lat.append(1)
        if self._columns:
            return ColumnProgram(bytes(ops), packed_latencies(lat), mem_lines)
        cache = _NONMEM_CACHE
        program: list[Instruction] = []
        append = program.append
        for pc, (op, latency) in enumerate(zip(ops, lat)):
            lines = mem_lines.get(pc)
            if lines:
                append(Instruction(op, latency, lines))
            else:
                key = (op, latency)
                inst = cache.get(key)
                if inst is None:
                    inst = Instruction(op, latency=latency)
                    cache[key] = inst
                append(inst)
        return program


def instruction_mix(program: Sequence[Instruction]) -> dict[str, int]:
    """Histogram of opcodes (used by the benchmark-characteristics table)."""
    mix: dict[str, int] = {}
    for inst in program:
        mix[inst.op.name] = mix.get(inst.op.name, 0) + 1
    return mix


def memory_intensity(program: Sequence[Instruction]) -> float:
    """Fraction of instructions that access global memory."""
    if not program:
        return 0.0
    mem = sum(1 for inst in program if inst.is_memory)
    return mem / len(program)

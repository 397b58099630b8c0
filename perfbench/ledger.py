"""Per-layer time and call ledger for the traced run.

The ledger wraps each layer's public entry points from outside the
program (``install``), so nothing under ``src/`` changes and an untraced
run executes the program untouched.  Every wrapped call counts one call
for its layer and adds its *self* time: its wall time minus the time spent
in wrapped calls it made.  Nested calls of one layer are therefore never
counted twice, and a layer's self time is where the host actually spent
the time.

Event callbacks are timed by their owner: the ``EventQueue.schedule``
wrapper replaces each callback with a timed one attributed to the layer
of the module that defines the callback's class, so L2 and DRAM work
fired from ``run_due`` counts as ``mem`` and SM wake-ups as ``sim.sm``.

``Supervisor.run_job`` is a coroutine that awaits a worker process; its
time is reported inclusive (``busy``), outside the self-time stack.

State is per thread (the daemon reads the result cache from an executor
thread) and merged by :meth:`Ledger.snapshot`.  Each wrapper costs about
a microsecond per call, charged partly to its own layer and partly to the
caller's; :func:`calibrate` measures both parts and the reported self
times have them subtracted.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable

#: Layers with a self-time stack, in reporting order.
LAYERS = ("sim.gpu", "sim.sm", "sim.events", "mem", "workloads", "core",
          "harness.runner", "harness.engine", "harness.cache", "design",
          "service.protocol", "service.admission", "service.journal")

#: Layers timed inclusively (coroutines spanning awaits).
BUSY_LAYERS = ("service.supervisor",)

#: Module prefix -> owning layer, for event callbacks (first match wins).
CALLBACK_OWNERS = (
    ("repro.mem", "mem"),
    ("repro.sim.vector.core", "sim.sm"),
    ("repro.sim.vector.gpu", "sim.gpu"),
    ("repro.sim.sm", "sim.sm"),
    ("repro.sim.gpu", "sim.gpu"),
    ("repro.core", "core"),
)

_INDEX = {layer: i for i, layer in enumerate(LAYERS)}


class _ThreadState:
    __slots__ = ("stack", "calls", "self_s", "child_calls", "gets", "hits")

    def __init__(self) -> None:
        self.stack: list[list] = []       # open frames: [child_s, child_calls]
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.child_calls = [0] * len(LAYERS)   # wrapped calls made from it
        self.gets = 0                     # result-cache gets ...
        self.hits = 0                     # ... and how many of them hit


class Ledger:
    """Call counts and self times per layer, for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._busy = {layer: [0, 0.0] for layer in BUSY_LAYERS}
        self._patches: list[tuple[Any, str, Any]] = []
        self._owner_cache: dict[Any, int] = {}
        self._trampolines = [self.timed(_call_packed, layer)
                             for layer in LAYERS]

    # -- state --------------------------------------------------------- #
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def snapshot(self) -> dict[str, Any]:
        """Merged counters: ``{layer: [calls, self_s, child_calls]}`` (busy
        layers: ``[calls, busy_s, 0]``) plus the result-cache ``gets`` and
        ``hits``."""
        totals: dict[str, Any] = {layer: [0, 0.0, 0] for layer in LAYERS}
        gets = hits = 0
        with self._lock:
            states = list(self._states)
        for state in states:
            for i, layer in enumerate(LAYERS):
                totals[layer][0] += state.calls[i]
                totals[layer][1] += state.self_s[i]
                totals[layer][2] += state.child_calls[i]
            gets += state.gets
            hits += state.hits
        for layer, (calls, seconds) in self._busy.items():
            totals[layer] = [calls, seconds, 0]
        totals["gets"] = gets
        totals["hits"] = hits
        return totals

    # -- wrappers ------------------------------------------------------ #
    def timed(self, fn: Callable, layer: str) -> Callable:
        """``fn`` wrapped to count a call and self time for ``layer``."""
        index = _INDEX[layer]
        state_of = self._state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            state = state_of()
            stack = state.stack
            stack.append([0.0, 0])
            try:
                return fn(*args, **kwargs)
            finally:
                child_s, child_calls = stack.pop()
                state.calls[index] += 1
                state.child_calls[index] += child_calls
                elapsed = clock() - start
                state.self_s[index] += elapsed - child_s
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += 1

        return functools.wraps(fn)(traced)

    def busy(self, coro_fn: Callable, layer: str) -> Callable:
        """A coroutine function timed inclusively for ``layer``."""
        counter = self._busy[layer]
        clock = time.perf_counter

        async def traced(*args, **kwargs):
            start = clock()
            try:
                return await coro_fn(*args, **kwargs)
            finally:
                counter[0] += 1
                counter[1] += clock() - start

        return functools.wraps(coro_fn)(traced)

    def _owner(self, callback: Callable) -> int:
        key = getattr(callback, "__func__", callback)
        index = self._owner_cache.get(key)
        if index is None:
            module = getattr(callback, "__module__", None) or ""
            layer = "sim.events"
            for prefix, name in CALLBACK_OWNERS:
                if module == prefix or module.startswith(prefix + "."):
                    layer = name
                    break
            index = self._owner_cache[key] = _INDEX[layer]
        return index

    def timed_schedule(self, schedule: Callable) -> Callable:
        """``EventQueue.schedule`` that times each callback for its owner.

        The queued callback becomes the owner layer's timed trampoline,
        called as ``trampoline(now, (callback, arg))``, so ``run_due``
        fires the callback inside a frame of its owner's layer.
        """
        owner_of = self._owner
        trampolines = self._trampolines

        def traced_schedule(queue, at, callback, arg=None):
            return schedule(queue, at, trampolines[owner_of(callback)],
                            (callback, arg))

        return self.timed(functools.wraps(schedule)(traced_schedule),
                          "sim.events")

    def counting_hits(self, get: Callable) -> Callable:
        """``ResultCache.get`` that also counts hits."""
        state_of = self._state

        def get_counted(cache, fingerprint):
            result = get(cache, fingerprint)
            state = state_of()
            state.gets += 1
            if result is not None:
                state.hits += 1
            return result

        return self.timed(functools.wraps(get)(get_counted), "harness.cache")

    # -- patching ------------------------------------------------------ #
    def patch(self, owner: Any, name: str, replacement: Callable) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def wrap(self, owner: Any, name: str, layer: str) -> None:
        self.patch(owner, name, self.timed(owner.__dict__[name], layer))

    def install(self) -> "Ledger":
        """Wrap every layer's entry points (see the module docstring)."""
        from repro.core.cta_schedulers import CTAScheduler
        from repro.design.design import Design
        from repro.harness import engine, runner
        from repro.harness.cache import ResultCache
        from repro.harness.jobs import SimJob
        from repro.mem.cache import Cache
        from repro.mem.dram import DRAMModel
        from repro.mem.subsystem import MemorySubsystem
        from repro.service import daemon
        from repro.service.admission import (CircuitBreaker, FairShareQueue,
                                             TokenBucket)
        from repro.service.supervisor import Supervisor
        from repro.sim.events import EventQueue
        from repro.sim.gpu import GPU
        from repro.sim.kernel import Kernel
        from repro.sim.sm import SM
        from repro.sim.vector.core import VectorSM
        from repro.sim.vector.gpu import VectorGPU

        self.wrap(GPU, "run", "sim.gpu")
        self.wrap(VectorGPU, "run", "sim.gpu")
        for cls in (SM, VectorSM):
            self.wrap(cls, "tick", "sim.sm")
            self.wrap(cls, "mem_response", "sim.sm")
        self.patch(EventQueue, "schedule",
                   self.timed_schedule(EventQueue.__dict__["schedule"]))
        self.wrap(EventQueue, "run_due", "sim.events")
        for name in ("load", "store"):
            self.wrap(MemorySubsystem, name, "mem")
        for name in ("lookup_load", "fill", "write_probe"):
            self.wrap(Cache, name, "mem")
        for name in ("read", "write"):
            self.wrap(DRAMModel, name, "mem")
        for name in ("build_warp_program", "build_warp_columns"):
            self.wrap(Kernel, name, "workloads")
        for cls in _subclasses(CTAScheduler):
            if "fill" in cls.__dict__:
                self.wrap(cls, "fill", "core")
        self.wrap(runner, "simulate", "harness.runner")
        self.wrap(SimJob, "execute", "harness.runner")
        self.wrap(engine, "run_batch", "harness.engine")
        self.patch(ResultCache, "get",
                   self.counting_hits(ResultCache.__dict__["get"]))
        self.wrap(ResultCache, "put", "harness.cache")
        self.wrap(Design, "compile", "design")
        # The daemon's own bindings (it imports the functions by name).
        self.wrap(daemon, "encode_frame", "service.protocol")
        self.wrap(daemon, "decode_frame", "service.protocol")
        self.wrap(CircuitBreaker, "admit", "service.admission")
        self.wrap(TokenBucket, "take", "service.admission")
        self.wrap(FairShareQueue, "push", "service.admission")
        self.wrap(FairShareQueue, "pop", "service.admission")
        self.wrap(daemon.JobTable, "append", "service.journal")
        self.patch(Supervisor, "run_job",
                   self.busy(Supervisor.__dict__["run_job"],
                             "service.supervisor"))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _call_packed(now: int, packed: tuple[Callable, Any]) -> Any:
    callback, arg = packed
    return callback(now, arg)


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def calibrate(calls: int = 100_000, rounds: int = 3) -> tuple[float, float]:
    """Wrapper cost per call: ``(own, parent)`` seconds.

    Times a wrapped no-op called from inside a wrapped parent, as layer
    calls are.  ``own`` is what a wrapped call charges to its own layer
    (the no-op's recorded self time less a bare call); ``parent`` is what
    it charges to the calling layer (the parent's self time less a bare
    loop, per call).  :func:`metrics.layer_metrics` subtracts both.
    """
    def noop():
        return None

    def bare_loop():
        for _ in range(calls):
            noop()

    own = parent = float("inf")
    for _ in range(rounds):
        ledger = Ledger()
        wrapped = ledger.timed(noop, "sim.sm")

        def wrapped_loop():
            for _ in range(calls):
                wrapped()

        ledger.timed(wrapped_loop, "sim.gpu")()
        start = time.perf_counter()
        bare_loop()
        bare = time.perf_counter() - start
        snap = ledger.snapshot()
        own = min(own, (snap["sim.sm"][1] - bare) / calls)
        parent = min(parent, (snap["sim.gpu"][1] - bare) / calls)
    return max(own, 0.0), max(parent, 0.0)

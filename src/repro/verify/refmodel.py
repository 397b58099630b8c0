"""Differential reference model for the tuned issue/select hot path.

``sim/sm.py`` and ``GPU._loop`` carry several "behaviour-identical"
specializations — the LD/ST-queue issue-gate trick
(``pick(None if len(ldst) < depth else qfull)``), the ``gate_blocked``
fast path, hoisted config attributes, the idle-SM skip mirror, and event
fast-forward.  Each was argued equivalent when it landed; this module is
the *standing* witness.  It re-implements the issue/select path in the
most boring way possible:

* :class:`ReferenceWarpScheduler` — a plain membership list, sorted by the
  policy's priority key at every pick (no lazy heap, no stale entries, no
  push-time key snapshots);
* :class:`ReferenceSM` — always calls ``pick(self._can_issue)`` with the
  full per-warp structural check, reading ``config.ldst_queue_depth``
  through the config object each time (no specialization, no hoists, no
  ``gate_blocked``);
* :class:`ReferenceGPU` — a single naive loop that ticks every SM every
  cycle (no idle skip, no fast-forward) and closes telemetry windows at
  the loop top exactly like the tuned loop.

:func:`cross_check` runs one :class:`~repro.harness.jobs.SimJob` through
*both* models — the tuned side on the object core whatever the job's
``backend`` (the vector core is held to the object core separately, by
:mod:`repro.verify.backends`) — with the same telemetry window and compares the windowed
timeline row by row: a specialization bug surfaces at the **first
divergent window** (cycle named), with the differing columns and a
minimized repro snippet, instead of as an end-of-run stat delta with no
location.  The final stats are compared bitwise as well.

Scope: ``lrr``, ``gto`` and ``baws`` (:data:`REF_SUPPORTED`).  For these
the heap's push-time keys are provably stable while a warp is READY, so
"sorted by current key" is the specification the tuned heap implements.
``two-level`` and ``swl`` mutate membership keys at pick/issue time and
are documented as approximate — a reference model would have to replicate
the approximation, which verifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from time import monotonic as _monotonic
from typing import Any

from ..harness.jobs import SimJob, build_policy
from ..sim.config import GPUConfig
from ..sim.gpu import GPU, SimulationDeadlock, SimulationTimeout
from ..sim.sm import SM
from ..sim.stats import CacheStats, RunResult
from ..sim.warp import Warp, WarpState
from ..telemetry.hub import TelemetryHub
from .golden import diff_paths

#: Warp schedulers the reference model covers (exact-specification set).
REF_SUPPORTED = frozenset({"lrr", "gto", "baws"})

#: Default cross-check window (cycles).  Small enough to localize a bug to
#: a tight cycle range, large enough to keep the row count manageable.
DEFAULT_WINDOW = 200


class RefModelError(ValueError):
    """The job is outside the reference model's exact-specification scope."""


# --------------------------------------------------------------------------- #
# reference warp schedulers
# --------------------------------------------------------------------------- #

class ReferenceWarpScheduler:
    """Specification-grade warp scheduler: sort the READY set every pick.

    Mirrors the tuned :class:`~repro.core.warp_schedulers.WarpScheduler`
    contract exactly — the greedy pointer, the bounded blocked-candidate
    scan (``SCAN_LIMIT``), picked-warp removal — but with none of the lazy
    heap machinery.  O(n log n) per pick, by design.
    """

    greedy = False
    name = "ref-base"
    #: Same bounded issue-stage scan as the tuned scheduler (a scheduler
    #: examines at most this many blocked candidates per cycle).
    SCAN_LIMIT = 6

    def __init__(self) -> None:
        self._ready: list[Warp] = []
        self._greedy_warp: Warp | None = None

    def priority_key(self, warp: Warp) -> tuple:
        raise NotImplementedError

    def on_ready(self, warp: Warp) -> None:
        if warp is self._greedy_warp:
            # The greedy pointer already guarantees this warp is
            # considered first while READY (tuned model skips the heap
            # push for the same reason).
            return
        if warp not in self._ready:
            self._ready.append(warp)

    def pick(self, can_issue=None) -> Warp | None:
        ready = WarpState.READY
        if self.greedy:
            greedy_warp = self._greedy_warp
            if greedy_warp is not None and greedy_warp.state is ready:
                if can_issue is None or can_issue(greedy_warp):
                    return greedy_warp
                # Blocked at issue: back into the candidate pool; age
                # order decides below (tuned: heap re-push).
                if greedy_warp not in self._ready:
                    self._ready.append(greedy_warp)
                self._greedy_warp = None
        # Drop warps that left READY (the tuned heap's stale-entry skip).
        self._ready = [warp for warp in self._ready if warp.state is ready]
        picked = None
        scans = 0
        for warp in sorted(self._ready, key=self.priority_key):
            if can_issue is None or can_issue(warp):
                picked = warp
                break
            scans += 1
            if scans >= self.SCAN_LIMIT:
                break
        if picked is not None:
            self._ready.remove(picked)
        if self.greedy:
            self._greedy_warp = picked
        return picked

    def on_issue(self, warp: Warp, now: int) -> None:
        warp.last_issue = now


class ReferenceLRR(ReferenceWarpScheduler):
    name = "ref-lrr"

    def priority_key(self, warp: Warp) -> tuple:
        return (warp.last_issue, warp.age_key)


class ReferenceGTO(ReferenceWarpScheduler):
    name = "ref-gto"
    greedy = True

    def priority_key(self, warp: Warp) -> tuple:
        return warp.age_key


class ReferenceBAWS(ReferenceWarpScheduler):
    name = "ref-baws"
    greedy = True

    def priority_key(self, warp: Warp) -> tuple:
        return (warp.cta.block_seq, warp.last_issue, warp.age_key)


_REF_REGISTRY = {"lrr": ReferenceLRR, "gto": ReferenceGTO,
                 "baws": ReferenceBAWS}


def reference_scheduler_factory(name: str):
    """A zero-arg factory for the reference scheduler of a tuned policy.

    The factory's ``name`` is the *tuned* policy name so the assembled
    ``RunResult.meta["warp_scheduler"]`` matches the tuned run bitwise.
    """
    try:
        cls = _REF_REGISTRY[name]
    except KeyError:
        raise RefModelError(
            f"warp scheduler {name!r} is outside the reference model's "
            f"scope; supported: {sorted(REF_SUPPORTED)} (two-level/swl "
            f"are documented-approximate policies)") from None

    def factory() -> ReferenceWarpScheduler:
        return cls()

    factory.name = name  # type: ignore[attr-defined]
    return factory


# --------------------------------------------------------------------------- #
# reference SM and GPU
# --------------------------------------------------------------------------- #

class ReferenceSM(SM):
    """The SM with every issue-stage specialization removed."""

    __slots__ = ()

    def tick(self, now: int) -> bool:
        active = False
        if self.ldst and not self.ldst_blocked:
            self._ldst_tick(now)
            active = True
        if self.num_ready:
            # No gate_blocked short-circuit, no qfull specialization: the
            # full structural predicate is evaluated for every candidate.
            for scheduler in self.schedulers:
                warp = scheduler.pick(self._can_issue)
                if warp is not None:
                    self._issue(warp, scheduler, now)
                    active = True
        return active

    def _can_issue(self, warp: Warp) -> bool:
        # Deliberately reads through config (no hoisted _ldst_depth).
        if warp.program[warp.pc].is_memory:
            return len(self.ldst) < self.config.ldst_queue_depth
        return True


class ReferenceGPU(GPU):
    """The GPU with the naive run loop: every SM, every cycle."""

    def __init__(self, config: GPUConfig | None = None,
                 warp_scheduler: str | tuple = "gto",
                 telemetry: TelemetryHub | None = None) -> None:
        if not isinstance(warp_scheduler, str):
            warp_scheduler = getattr(warp_scheduler, "name",
                                     str(warp_scheduler))
        factory = reference_scheduler_factory(warp_scheduler)
        super().__init__(config=config, warp_scheduler=factory,
                         telemetry=telemetry)
        self.sms = [ReferenceSM(self, sm_id, self.config, factory)
                    for sm_id in range(self.config.num_sms)]

    # Both loop variants funnel into one naive loop; the tuned/windowed
    # split exists only for the tuned model's per-cycle cost.
    def _loop(self, cta_scheduler, cycle_accurate,
              deadline=None, service=None) -> int:
        return self._naive_loop(cta_scheduler, None, deadline)

    def _loop_windowed(self, cta_scheduler, cycle_accurate, hub,
                       deadline=None, service=None) -> int:
        return self._naive_loop(cta_scheduler, hub, deadline)

    def _naive_loop(self, cta_scheduler, hub, deadline) -> int:
        events = self.events
        sms = self.sms
        max_cycles = self.config.max_cycles
        cycle = self.cycle
        window = hub.window if hub is not None else None
        boundary = ((cycle // window + 1) * window
                    if window is not None else None)
        while not cta_scheduler.done:
            if boundary is not None:
                # Loop-top close, exactly like the tuned windowed loop, so
                # both models sample identical machine states.
                while cycle >= boundary:
                    hub.close_window(boundary)
                    boundary += window
            if deadline is not None and _monotonic() >= deadline:
                self.cycle = cycle
                raise SimulationTimeout(
                    f"wall-clock timeout at cycle {cycle} (reference "
                    f"model); runs={self.runs!r}",
                    cycle=cycle, max_cycles=max_cycles, kind="wall")
            events.run_due(cycle)
            cta_scheduler.fill(cycle)
            active = False
            for sm in sms:
                if sm.tick(cycle):
                    active = True
            if not active and events.next_time() is None:
                self.cycle = cycle
                raise SimulationDeadlock(
                    f"cycle {cycle}: no progress possible (reference "
                    f"model); runs={self.runs!r}")
            cycle += 1
            if cycle > max_cycles:
                self.cycle = cycle
                raise SimulationTimeout(
                    f"exceeded max_cycles={max_cycles} (reference model); "
                    f"runs={self.runs!r}",
                    cycle=cycle, max_cycles=max_cycles, kind="max-cycles")
        return cycle


def supports(job: SimJob) -> bool:
    """Whether :func:`cross_check` can run this job exactly."""
    return isinstance(job.warp, str) and job.warp in REF_SUPPORTED


def reference_run(kernels, *, policy: tuple = ("rr",), warp: str = "gto",
                  config: GPUConfig | None = None,
                  timeline_window: int | None = None, trace: bool = False,
                  wall_timeout: float | None = None) -> RunResult:
    """Run kernels on the reference model; assembles the result exactly
    like :func:`repro.harness.runner.simulate` so the two are comparable
    bitwise.  Accepts live :class:`~repro.sim.kernel.Kernel` objects, so
    the fuzzer's generated (non-suite) kernels can be cross-checked too."""
    kernels = list(kernels)
    scheduler = build_policy(policy, kernels)
    telemetry = None
    if timeline_window is not None or trace:
        telemetry = TelemetryHub(window=timeline_window, trace=trace)
    gpu = ReferenceGPU(config=config, warp_scheduler=warp,
                       telemetry=telemetry)
    gpu.run(scheduler, wall_timeout=wall_timeout)

    l1_total = CacheStats()
    for sm in gpu.sms:
        l1_total.add(sm.l1.stats)
    meta: dict = {
        "warp_scheduler": gpu.warp_scheduler_name,
        "cta_scheduler": scheduler.name,
        "num_sms": gpu.config.num_sms,
        "kernels": [kernel.name for kernel in kernels],
        "lcs_decision": getattr(scheduler, "decision", None),
    }
    if telemetry is not None:
        timeline = telemetry.timeline_result()
        if timeline is not None:
            meta["timeline"] = timeline
        if telemetry.trace_enabled:
            meta["trace"] = telemetry.trace_events()
    return RunResult(
        cycles=gpu.cycle,
        instructions=gpu.total_issued,
        kernels={run.kernel.name: run.stats for run in gpu.runs},
        l1=l1_total,
        l2=gpu.mem.l2_stats(),
        dram=gpu.mem.dram.stats,
        issued_by_sm=[sm.issued for sm in gpu.sms],
        cta_limits=scheduler.limits_snapshot(),
        meta=meta,
    )


def reference_simulate(job: SimJob, *,
                       wall_timeout: float | None = None) -> RunResult:
    """:func:`reference_run` for a declarative :class:`SimJob`."""
    if not supports(job):
        raise RefModelError(
            f"job warp scheduler {job.warp!r} is outside the reference "
            f"model's scope; supported: {sorted(REF_SUPPORTED)}")
    return reference_run(job.build_kernels(), policy=job.policy,
                         warp=job.warp, config=job.config,
                         timeline_window=job.timeline_window,
                         trace=job.trace, wall_timeout=wall_timeout)


# --------------------------------------------------------------------------- #
# the cross-check
# --------------------------------------------------------------------------- #

def _config_expr(config: GPUConfig) -> str:
    """A constructor expression for the non-default fields of a config."""
    defaults = GPUConfig()
    overrides = {f.name: getattr(config, f.name) for f in fields(GPUConfig)
                 if getattr(config, f.name) != getattr(defaults, f.name)}
    if not overrides:
        return "GPUConfig()"
    args = ", ".join(f"{name}={value!r}"
                     for name, value in sorted(overrides.items()))
    return f"GPUConfig({args})"


@dataclass
class CrossCheckResult:
    """What diverged (if anything) between the tuned and reference models."""

    label: str
    window: int
    #: A minimal self-contained script reproducing the divergence.
    repro: str = ""
    diverged: bool = False
    #: Index of the first divergent timeline window, or None.
    first_window: int | None = None
    #: End-boundary cycle of that window (the bug lies in
    #: ``(window_cycle - window, window_cycle]``), or None.
    window_cycle: int | None = None
    #: Column-level diffs of the first divergent window.
    window_diffs: list[tuple[str, Any, Any]] = field(default_factory=list)
    #: Bitwise diffs of the final result renderings (timeline excluded).
    stat_diffs: list[tuple[str, Any, Any]] = field(default_factory=list)
    tuned_cycles: int = 0
    reference_cycles: int = 0

    def summary(self) -> str:
        head = f"cross-check {self.label} window={self.window}"
        if not self.diverged:
            return (f"{head}: OK (tuned == reference, "
                    f"{self.tuned_cycles} cycles)")
        lines = [f"{head}: DIVERGED"]
        if self.first_window is not None:
            lines.append(
                f"  first divergent window: #{self.first_window} "
                f"(cycles {self.window_cycle - self.window}.."
                f"{self.window_cycle}]")
            for path, tuned, ref in self.window_diffs[:8]:
                lines.append(f"    {path}: tuned={tuned!r} "
                             f"reference={ref!r}")
        if self.stat_diffs:
            lines.append(f"  final-stat diffs ({len(self.stat_diffs)}):")
            for path, tuned, ref in self.stat_diffs[:8]:
                lines.append(f"    {path}: tuned={tuned!r} "
                             f"reference={ref!r}")
        if self.repro:
            lines.append("  repro:")
            lines.extend("    " + line
                         for line in self.repro.splitlines())
        return "\n".join(lines)

    def to_record(self) -> dict[str, Any]:
        """JSONL triage-artifact rendering (see repro.verify.artifacts)."""
        record: dict[str, Any] = {
            "kind": "refmodel",
            "label": self.label,
            "window": self.window,
            "diverged": self.diverged,
            "tuned_cycles": self.tuned_cycles,
            "reference_cycles": self.reference_cycles,
        }
        if self.diverged:
            record["first_window"] = self.first_window
            record["window_cycle"] = self.window_cycle
            record["window_diffs"] = [
                {"path": path, "tuned": tuned, "reference": ref}
                for path, tuned, ref in self.window_diffs[:20]]
            record["stat_diffs"] = [
                {"path": path, "tuned": tuned, "reference": ref}
                for path, tuned, ref in self.stat_diffs[:20]]
            record["repro"] = self.repro
        return record


def _timeline_rows(timeline: dict[str, Any]) -> list[dict[str, Any]]:
    rows = []
    columns = timeline["columns"]
    for i, cycle in enumerate(timeline["cycles"]):
        row: dict[str, Any] = {"cycle": cycle,
                               "ctas_per_sm": timeline["ctas_per_sm"][i]}
        for name, values in columns.items():
            row[name] = values[i]
        rows.append(row)
    return rows


def compare_runs(tuned: RunResult, reference: RunResult, *, window: int,
                 label: str, repro: str = "") -> CrossCheckResult:
    """Diff a tuned run against a reference run of the same description.

    When both results carry a timeline sampled at ``window`` cycles the
    comparison walks the two timelines row by row and reports the first
    divergent window (index + cycle range + differing columns); timeline-
    free runs fall back to bitwise diffs of the final statistics only.
    """
    tuned_dict = tuned.to_dict()
    reference_dict = reference.to_dict()
    # to_dict wraps the timeline in its meta marker (see repro.sim.stats).
    tuned_wrap = tuned_dict["meta"].pop("timeline", None)
    reference_wrap = reference_dict["meta"].pop("timeline", None)
    tuned_timeline = tuned_wrap["__timeline__"] if tuned_wrap else None
    reference_timeline = (reference_wrap["__timeline__"]
                          if reference_wrap else None)

    result = CrossCheckResult(label=label, window=window, repro=repro,
                              tuned_cycles=tuned.cycles,
                              reference_cycles=reference.cycles)
    if (tuned_timeline is None) != (reference_timeline is None):
        result.diverged = True
        result.window_diffs = [("<timeline presence>",
                                tuned_timeline is not None,
                                reference_timeline is not None)]

    tuned_rows = _timeline_rows(tuned_timeline) if tuned_timeline else []
    reference_rows = (_timeline_rows(reference_timeline)
                      if reference_timeline else [])
    for i in range(min(len(tuned_rows), len(reference_rows))):
        diffs = diff_paths(tuned_rows[i], reference_rows[i])
        if diffs:
            result.diverged = True
            result.first_window = i
            result.window_cycle = max(tuned_rows[i]["cycle"],
                                      reference_rows[i]["cycle"])
            result.window_diffs = diffs
            break
    else:
        if len(tuned_rows) != len(reference_rows):
            shorter = min(len(tuned_rows), len(reference_rows))
            result.diverged = True
            result.first_window = shorter
            longer = tuned_rows if len(tuned_rows) > shorter \
                else reference_rows
            result.window_cycle = longer[shorter]["cycle"]
            result.window_diffs = [("<window count>", len(tuned_rows),
                                    len(reference_rows))]

    result.stat_diffs = diff_paths(tuned_dict, reference_dict)
    if result.stat_diffs:
        result.diverged = True
    return result


def cross_check(job: SimJob, *, window: int = DEFAULT_WINDOW,
                wall_timeout: float | None = None) -> CrossCheckResult:
    """Run ``job`` on both models and localize any divergence.

    The job is re-described with ``timeline_window=window`` so both runs
    sample the identical probe set at identical loop-top boundaries; see
    :func:`compare_runs` for the comparison semantics.
    """
    if window < 1:
        raise RefModelError(f"window must be >= 1, got {window}")
    if not supports(job):
        raise RefModelError(
            f"job warp scheduler {job.warp!r} is outside the reference "
            f"model's scope; supported: {sorted(REF_SUPPORTED)}")
    if job.timeline_window != window:
        job = replace(job, timeline_window=window)
    tuned = replace(job, backend="object").execute(wall_timeout=wall_timeout)
    reference = reference_simulate(job, wall_timeout=wall_timeout)
    repro = (
        "from repro.harness.jobs import SimJob\n"
        "from repro.sim.config import GPUConfig\n"
        "from repro.verify.refmodel import cross_check\n"
        f"job = SimJob(names={tuple(job.names)!r}, "
        f"scale={job.scale!r}, seed={job.seed!r},\n"
        f"             warp={job.warp!r}, policy={job.policy!r},\n"
        f"             config={_config_expr(job.config)})\n"
        f"print(cross_check(job, window={window}).summary())\n"
    )
    label = (f"{'+'.join(job.names)} policy={job.policy} warp={job.warp}")
    return compare_runs(tuned, reference, window=window, label=label,
                        repro=repro)


def crosscheck_matrix() -> list[SimJob]:
    """The pinned cross-check suite for ``repro-verify refmodel``.

    Small-config, short runs (sub-second each) chosen so every in-scope
    warp scheduler meets every paper-relevant CTA policy, plus one
    multi-kernel cell — broad enough that a hot-path specialization bug
    in any issue/select branch shows up, small enough for per-PR CI.
    """
    small = GPUConfig.small()
    jobs = [
        SimJob(names=("kmeans",), scale=0.05, warp=warp, policy=policy,
               config=small)
        for warp in sorted(REF_SUPPORTED)
        for policy in (("rr",), ("lcs",), ("bcs", 2, None))
    ]
    jobs += [
        SimJob(names=("stencil",), scale=0.05, warp="baws",
               policy=("lcs+bcs", 2, "tail", None), config=small),
        SimJob(names=("spmv",), scale=0.05, warp="gto", policy=("dyncta",),
               config=small),
        SimJob(names=("compute", "kmeans"), scale=0.05, warp="gto",
               policy=("spatial",), config=small),
    ]
    return jobs


__all__ = ["CrossCheckResult", "DEFAULT_WINDOW", "REF_SUPPORTED",
           "RefModelError", "ReferenceBAWS", "ReferenceGTO", "ReferenceGPU",
           "ReferenceLRR", "ReferenceSM", "ReferenceWarpScheduler",
           "compare_runs", "cross_check", "crosscheck_matrix",
           "reference_run", "reference_scheduler_factory",
           "reference_simulate", "supports"]

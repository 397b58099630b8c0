"""Metamorphic + property fuzzer for the simulator.

:func:`run_fuzz` generates hundreds of random-but-valid (kernel, policy,
warp scheduler, config) cases — deterministically from one master seed —
and asserts semantic *invariants* on each: properties that must hold for
every simulation regardless of the numbers it produces.  A violated
invariant is shrunk to a minimal failing case and reported with a repro
snippet; the CI artifact rendering lives in :mod:`repro.verify.artifacts`.

Invariants (:data:`INVARIANTS`):

``determinism``
    Running the identical case twice yields bitwise-identical results
    (the contract the result cache, the engine and the goldens rely on).
    Checked on both simulator backends.
``rename``
    Renaming the kernel changes nothing but the name: no scheduling or
    memory decision may key on the kernel's *name*.  (Exact for fuzz
    kernels, whose builders ignore the name; suite kernels salt their
    workload RNG on it, which is why this lives on generated kernels.)
``relabel``
    Re-mapping which CTA id receives which (uniform) program is a no-op:
    programs must be pure functions of ``(cta_id, warp_idx)`` with no
    shared mutable generator state across builder calls, and nothing may
    key on the id mapping itself.  Checked on uniform cases only — for
    id-dependent address streams a relabeling legitimately changes the
    memory behaviour.
``telemetry``
    A run observed with a timeline window and a trace produces the exact
    same statistics as an unobserved run (the telemetry determinism
    contract, fuzzed instead of spot-checked).
``sanitize``
    An in-flight-sanitized run is bitwise-identical to an unsanitized one
    (the sanitizer reads state, never perturbs it).
``validity``
    :func:`repro.harness.validate.validate_run` conservation laws hold,
    per-kernel cycle ordering is sane (launch <= first dispatch <= finish
    <= total cycles), and the telemetry timeline is monotone (strictly
    increasing window boundaries, cumulative instruction counts never
    exceeding the final total).
``refmodel``
    For cases whose warp scheduler the differential reference model
    covers exactly (:data:`~repro.verify.refmodel.REF_SUPPORTED`), the
    tuned and reference models agree window-by-window (see
    :mod:`repro.verify.refmodel`).
``design``
    A design built from the case's (warp, policy) compiles to the same
    labels and job fingerprints twice in a row, and — via the TOML
    serializer — survives a serialize → parse → compile round trip with
    identical fingerprints (the determinism contract campaigns and the
    ``--design`` CLI path lean on).  Pure compilation: nothing simulates.
``backend``
    For cases whose warp scheduler the vector backend supports (all
    five, :data:`~repro.sim.vector.VECTOR_WARP_SCHEDULERS`), the object
    and vector cores produce bitwise-identical results — statistics,
    windowed timeline and trace alike (the contract
    :mod:`repro.verify.backends` sweeps over the pinned matrix,
    extended here to generated kernels).

Determinism contract of the fuzzer itself: ``run_fuzz(seed, n)`` draws
the same ``n`` cases for the same ``seed`` on every invocation, so a CI
failure is reproducible locally from the two integers in the log.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable

import numpy as np

from ..harness.jobs import build_policy
from ..harness.runner import simulate
from ..harness.validate import RunValidationError, validate_run
from ..sim.config import GPUConfig
from ..sim.isa import Instruction, Op
from ..sim.kernel import Kernel
from ..sim.stats import RunResult
from ..sim.vector import vector_supported
from ..telemetry.hub import TelemetryHub
from .golden import diff_paths
from .refmodel import REF_SUPPORTED, compare_runs, reference_run

#: Per-run wall-clock backstop (seconds); generated cases are tiny, so a
#: run hitting this is itself a bug worth surfacing.
CASE_WALL_TIMEOUT = 120.0

#: Timeline window used by the telemetry/validity/refmodel invariants.
CASE_WINDOW = 100


class FuzzError(RuntimeError):
    """The fuzzer itself was misused (bad case bounds, bad invariant)."""


# --------------------------------------------------------------------------- #
# cases
# --------------------------------------------------------------------------- #

#: Policy palette for generated cases (single-kernel CTA schedulers; CKE
#: policies need multi-kernel workloads and are covered by the goldens).
POLICY_PALETTE: tuple[tuple, ...] = (
    ("rr",), ("static", 2), ("lcs",), ("bcs", 2, None),
    ("dyncta",), ("depth-first",), ("lcs+bcs", 2, "tail", None),
)

#: Warp-scheduler palette (every registered policy name).
WARP_PALETTE: tuple[str, ...] = ("lrr", "gto", "baws", "two-level", "swl")


@dataclass(frozen=True)
class FuzzCase:
    """One generated simulation description, all-scalar and shrinkable.

    Unlike :func:`repro.workloads.fuzz.random_kernel` (which draws its
    dimensions internally from the seed), every dimension here is an
    explicit field — that is what makes shrinking possible: the shrinker
    lowers fields directly and rebuilds the kernel, instead of hunting
    for a different seed with a smaller draw.
    """

    seed: int
    num_ctas: int = 4
    warps_per_cta: int = 2
    num_segments: int = 2
    segment_length: int = 4
    line_space: int = 256
    barriers: bool = False
    uniform: bool = False
    regs_per_thread: int = 0
    warp: str = "gto"
    policy: tuple = ("rr",)
    num_sms: int = 2
    issue_width: int = 2
    ldst_queue_depth: int = 8
    l1_mshr_entries: int = 8

    def __post_init__(self) -> None:
        for name in ("num_ctas", "warps_per_cta", "num_segments",
                     "segment_length", "line_space", "num_sms",
                     "issue_width", "ldst_queue_depth", "l1_mshr_entries"):
            if getattr(self, name) < 1:
                raise FuzzError(f"FuzzCase.{name} must be >= 1")
        if self.warp not in WARP_PALETTE:
            raise FuzzError(f"unknown warp {self.warp!r}")
        object.__setattr__(self, "policy", tuple(self.policy))

    # ------------------------------------------------------------------ #
    @classmethod
    def generate(cls, seed: int) -> "FuzzCase":
        """Draw one case, deterministically in ``seed``."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCA5E]))
        return cls(
            seed=seed,
            num_ctas=int(rng.integers(1, 9)),
            warps_per_cta=int(rng.integers(1, 5)),
            num_segments=int(rng.integers(1, 5)),
            segment_length=int(rng.integers(1, 9)),
            line_space=int(rng.choice([64, 256, 1024])),
            barriers=bool(rng.integers(0, 2)),
            uniform=bool(rng.integers(0, 2)),
            regs_per_thread=int(rng.integers(0, 33)),
            warp=str(rng.choice(WARP_PALETTE)),
            policy=POLICY_PALETTE[int(rng.integers(0, len(POLICY_PALETTE)))],
            num_sms=int(rng.integers(1, 3)),
            issue_width=int(rng.integers(1, 3)),
            ldst_queue_depth=int(rng.choice([1, 2, 4, 8])),
            l1_mshr_entries=int(rng.choice([2, 4, 8])),
        )

    # ------------------------------------------------------------------ #
    def config(self) -> GPUConfig:
        return GPUConfig.small(
            num_sms=self.num_sms,
            issue_width=self.issue_width,
            ldst_queue_depth=self.ldst_queue_depth,
            l1_mshr_entries=self.l1_mshr_entries,
            # Keep merge capacity within the (possibly tiny) MSHR file.
            l1_mshr_max_merge=min(4, self.l1_mshr_entries),
        )

    def build_kernel(self, *, name: str | None = None,
                     relabel: Callable[[int], int] | None = None) -> Kernel:
        """A fresh kernel for this case.

        ``relabel`` re-maps which CTA id receives which program stream
        (the ``relabel`` invariant's transformation); programs stay pure
        functions of the *mapped* id.
        """
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        with_barriers = self.barriers and self.warps_per_cta > 1
        shape: list[list[tuple[str, int, int]]] = []
        for _ in range(self.num_segments):
            length = int(rng.integers(1, self.segment_length + 1))
            segment = []
            for _ in range(length):
                kind = str(rng.choice(
                    ["alu", "alu", "shared", "load", "load", "store"]))
                latency = int(rng.integers(1, 16))
                n_lines = int(rng.integers(1, 5))
                segment.append((kind, latency, n_lines))
            shape.append(segment)

        seed = self.seed
        uniform = self.uniform
        line_space = self.line_space

        def builder(cta_id: int, warp_idx: int) -> list[Instruction]:
            if relabel is not None:
                cta_id = relabel(cta_id)
            # Uniform cases share one address stream across CTAs, making
            # the id a pure label (see the `relabel` invariant).
            stream_id = 0 if uniform else cta_id
            local = np.random.default_rng(
                np.random.SeedSequence([seed, 2, stream_id, warp_idx]))
            program: list[Instruction] = []
            for segment in shape:
                for kind, latency, n_lines in segment:
                    if kind == "alu":
                        program.append(Instruction(Op.ALU, latency=latency))
                    elif kind == "shared":
                        program.append(
                            Instruction(Op.SHARED, latency=latency))
                    else:
                        lines = local.choice(line_space, size=n_lines,
                                             replace=False)
                        op = (Op.LD_GLOBAL if kind == "load"
                              else Op.ST_GLOBAL)
                        program.append(Instruction(
                            op, lines=tuple(int(x) for x in lines)))
                if with_barriers:
                    program.append(Instruction(Op.BARRIER))
            program.append(Instruction(Op.EXIT))
            return program

        return Kernel(name or f"fuzzcase-{self.seed}", self.num_ctas,
                      self.warps_per_cta, builder,
                      regs_per_thread=self.regs_per_thread, tags=("fuzz",))

    # ------------------------------------------------------------------ #
    def run(self, *, name: str | None = None,
            relabel: Callable[[int], int] | None = None,
            timeline_window: int | None = None, trace: bool = False,
            sanitize: bool = False, backend: str = "object") -> RunResult:
        """Execute this case once (fresh kernel, policy and hub)."""
        kernel = self.build_kernel(name=name, relabel=relabel)
        scheduler = build_policy(self.policy, [kernel])
        telemetry = None
        if timeline_window is not None or trace:
            telemetry = TelemetryHub(window=timeline_window, trace=trace)
        return simulate(kernel, config=self.config(),
                        warp_scheduler=self.warp, cta_scheduler=scheduler,
                        telemetry=telemetry, sanitize=sanitize,
                        wall_timeout=CASE_WALL_TIMEOUT, backend=backend)

    def repro_snippet(self, invariant: str) -> str:
        parts = ", ".join(f"{key}={value!r}"
                          for key, value in asdict(self).items())
        return (
            "from repro.verify.fuzzer import FuzzCase, check_invariant\n"
            f"case = FuzzCase({parts})\n"
            f"print(check_invariant(case, {invariant!r}))\n"
        )


# --------------------------------------------------------------------------- #
# invariants
# --------------------------------------------------------------------------- #

def _strip_names(result_dict: dict[str, Any]) -> dict[str, Any]:
    """Erase kernel-name keys so renamed runs compare structurally."""
    stripped = dict(result_dict)
    stripped["kernels"] = {
        f"<kernel-{i}>": {key: value for key, value in stats.items()
                          if key != "name"}
        for i, (_, stats) in enumerate(sorted(stripped["kernels"].items()))}
    meta = dict(stripped["meta"])
    meta["kernels"] = [f"<kernel-{i}>"
                       for i in range(len(meta.get("kernels", [])))]
    stripped["meta"] = meta
    return stripped


def _diff_detail(diffs: list[tuple[str, Any, Any]], what: str) -> str:
    head = diffs[:6]
    rendered = "; ".join(f"{path}: {a!r} != {b!r}" for path, a, b in head)
    more = f" (+{len(diffs) - len(head)} more)" if len(diffs) > len(head) \
        else ""
    return f"{what}: {len(diffs)} diff(s): {rendered}{more}"


def _check_determinism(case: FuzzCase) -> str | None:
    first = case.run(trace=True, timeline_window=CASE_WINDOW).to_dict()
    second = case.run(trace=True, timeline_window=CASE_WINDOW).to_dict()
    diffs = diff_paths(first, second)
    if diffs:
        return _diff_detail(diffs, "two identical runs differ")
    if vector_supported(case.warp):
        v_first = case.run(trace=True, timeline_window=CASE_WINDOW,
                           backend="vector").to_dict()
        v_second = case.run(trace=True, timeline_window=CASE_WINDOW,
                            backend="vector").to_dict()
        diffs = diff_paths(v_first, v_second)
        if diffs:
            return _diff_detail(diffs,
                                "two identical vector-backend runs differ")
    return None


def _check_backend(case: FuzzCase) -> str | None:
    """The vector core reproduces the object core bitwise (when it can).

    Runs carry the timeline and trace riders so all three drift lanes
    (stats, timeline, telemetry) are compared, exactly like the pinned
    ``repro-verify backend`` sweep but over generated cases.
    """
    if not vector_supported(case.warp):
        return None
    obj = case.run(trace=True, timeline_window=CASE_WINDOW).to_dict()
    vec = case.run(trace=True, timeline_window=CASE_WINDOW,
                   backend="vector").to_dict()
    diffs = diff_paths(obj, vec)
    if diffs:
        return _diff_detail(diffs, "object/vector backends disagree")
    return None


def _check_rename(case: FuzzCase) -> str | None:
    base = _strip_names(case.run().to_dict())
    renamed = _strip_names(case.run(name="renamed-kernel").to_dict())
    diffs = diff_paths(base, renamed)
    if diffs:
        return _diff_detail(diffs, "kernel rename changed results")
    return None


def _check_relabel(case: FuzzCase) -> str | None:
    if not case.uniform:
        return None   # id-dependent address streams: not an invariant
    n = case.num_ctas
    # A fixed, deterministic derangement-ish permutation (reversal).
    base = case.run().to_dict()
    relabeled = case.run(relabel=lambda cta_id: n - 1 - cta_id).to_dict()
    diffs = diff_paths(base, relabeled)
    if diffs:
        return _diff_detail(diffs, "CTA-id relabeling changed results")
    return None


def _check_telemetry(case: FuzzCase) -> str | None:
    bare = case.run().to_dict()
    observed = case.run(timeline_window=CASE_WINDOW, trace=True).to_dict()
    # The observed run legitimately carries the timeline and trace; the
    # *statistics* must be untouched.
    observed["meta"].pop("timeline", None)
    observed["meta"].pop("trace", None)
    diffs = diff_paths(bare, observed)
    if diffs:
        return _diff_detail(diffs, "telemetry perturbed the statistics")
    return None


def _check_sanitize(case: FuzzCase) -> str | None:
    plain = case.run(sanitize=False).to_dict()
    try:
        sanitized = case.run(sanitize=True).to_dict()
    except Exception as error:   # noqa: BLE001 - any violation is a finding
        return (f"sanitized run raised {type(error).__name__}: {error}")
    diffs = diff_paths(plain, sanitized)
    if diffs:
        return _diff_detail(diffs, "sanitizer perturbed the statistics")
    return None


def _check_validity(case: FuzzCase) -> str | None:
    result = case.run(timeline_window=CASE_WINDOW)
    try:
        validate_run(result)
    except RunValidationError as error:
        return f"validate_run: {error}"
    for name, stats in result.kernels.items():
        first = stats.first_dispatch_cycle
        finish = stats.finish_cycle
        if first is None or finish is None:
            return f"kernel {name!r}: missing dispatch/finish cycles"
        if not (stats.launch_cycle <= first <= finish <= result.cycles):
            return (f"kernel {name!r}: cycle ordering violated "
                    f"(launch={stats.launch_cycle}, first={first}, "
                    f"finish={finish}, total={result.cycles})")
    timeline = result.meta.get("timeline")
    if timeline is not None:
        cycles = timeline.cycles
        if any(b <= a for a, b in zip(cycles, cycles[1:])):
            return f"timeline boundaries not increasing: {cycles[:16]}"
        if cycles and cycles[-1] > result.cycles:
            return (f"timeline ran past the end of the run "
                    f"({cycles[-1]} > {result.cycles})")
        ipc = timeline.columns.get("ipc", [])
        issued = sum(v * w for v, w in zip(
            ipc, [cycles[0]] + [b - a for a, b in zip(cycles, cycles[1:])]))
        if issued > result.instructions + 1e-6 * max(result.instructions, 1):
            return (f"windowed IPC integrates to more instructions than "
                    f"issued ({issued:.1f} > {result.instructions})")
    return None


def _check_refmodel(case: FuzzCase) -> str | None:
    if case.warp not in REF_SUPPORTED:
        return None
    tuned = case.run(timeline_window=CASE_WINDOW)
    reference = reference_run(
        [case.build_kernel()], policy=case.policy, warp=case.warp,
        config=case.config(), timeline_window=CASE_WINDOW,
        wall_timeout=CASE_WALL_TIMEOUT)
    report = compare_runs(tuned, reference, window=CASE_WINDOW,
                          label=f"fuzzcase-{case.seed}")
    if report.diverged:
        where = (f"first divergent window #{report.first_window} "
                 f"(cycle {report.window_cycle})"
                 if report.first_window is not None else "final stats")
        return (f"tuned/reference divergence at {where}: "
                + _diff_detail(report.window_diffs or report.stat_diffs,
                               "diffs"))
    return None


#: name -> checker; a checker returns None (pass) or a failure detail.
def _check_design(case: FuzzCase) -> str | None:
    """Design compilation is deterministic and file-round-trip stable."""
    from ..design import Design, DesignEnv, Factor, parse_design, \
        serialize_design
    design = Design(f"fuzz-{case.seed}", factors=[
        Factor.crossed("bench", ("kmeans", "streaming")),
        Factor.crossed("warp", (case.warp,)),
        Factor.crossed("policy", (case.policy, ("rr",))),
    ])
    env_map = {"scale": 0.05, "seed": case.seed}
    env = DesignEnv(**env_map)
    first = [(cc.label, cc.job.fingerprint())
             for cc in design.compile(env)]
    second = [(cc.label, cc.job.fingerprint())
              for cc in design.compile(env)]
    if first != second:
        return (f"design compiled differently twice under one env: "
                f"{first} vs {second}")
    parsed, env_overrides = parse_design(
        serialize_design(design, env=env_map))
    third = [(cc.label, cc.job.fingerprint())
             for cc in parsed.compile(DesignEnv(**env_overrides))]
    if first != third:
        return (f"design file round trip changed the compiled jobs: "
                f"{first} vs {third}")
    return None


INVARIANTS: dict[str, Callable[[FuzzCase], str | None]] = {
    "determinism": _check_determinism,
    "rename": _check_rename,
    "relabel": _check_relabel,
    "telemetry": _check_telemetry,
    "sanitize": _check_sanitize,
    "validity": _check_validity,
    "refmodel": _check_refmodel,
    "backend": _check_backend,
    "design": _check_design,
}


def check_invariant(case: FuzzCase, invariant: str) -> str | None:
    """Run one named invariant; None means it held."""
    try:
        checker = INVARIANTS[invariant]
    except KeyError:
        raise FuzzError(f"unknown invariant {invariant!r}; "
                        f"available: {sorted(INVARIANTS)}") from None
    return checker(case)


def check_case(case: FuzzCase) -> dict[str, str]:
    """Run every invariant; returns {invariant: failure detail} (empty =
    all held).  An invariant that *crashes* is recorded as a failure too —
    a generated case must never take the simulator down."""
    failures: dict[str, str] = {}
    for name, checker in INVARIANTS.items():
        try:
            detail = checker(case)
        except Exception as error:   # noqa: BLE001 - crash == finding
            detail = f"invariant crashed: {type(error).__name__}: {error}"
        if detail is not None:
            failures[name] = detail
    return failures


# --------------------------------------------------------------------------- #
# shrinking
# --------------------------------------------------------------------------- #

#: Fields the shrinker lowers, in order, with their minimum values.
_SHRINK_FIELDS: tuple[tuple[str, int], ...] = (
    ("num_ctas", 1), ("warps_per_cta", 1), ("num_segments", 1),
    ("segment_length", 1), ("num_sms", 1), ("issue_width", 1),
    ("line_space", 16), ("l1_mshr_entries", 2), ("ldst_queue_depth", 1),
    ("regs_per_thread", 0),
)

#: Upper bound on predicate evaluations per shrink (each evaluation runs
#: the failing invariant, i.e. a handful of simulations).
SHRINK_BUDGET = 80


def shrink(case: FuzzCase, predicate: Callable[[FuzzCase], bool],
           *, budget: int = SHRINK_BUDGET) -> FuzzCase:
    """Greedy field-wise shrink: lower every field as far as the failure
    persists.  ``predicate(case)`` returns True while the case still
    fails.  Deterministic (no randomness) and bounded by ``budget``
    predicate calls."""
    calls = 0

    def still_fails(candidate: FuzzCase) -> bool:
        nonlocal calls
        if calls >= budget:
            return False
        calls += 1
        try:
            return bool(predicate(candidate))
        except Exception:   # noqa: BLE001 - a crashier candidate still fails
            return True

    current = case
    # Flip the booleans off first (smaller programs, simpler schedules).
    for flag in ("barriers", "uniform"):
        if getattr(current, flag):
            candidate = replace(current, **{flag: False})
            if still_fails(candidate):
                current = candidate
    changed = True
    while changed and calls < budget:
        changed = False
        for name, minimum in _SHRINK_FIELDS:
            value = getattr(current, name)
            while value > minimum and calls < budget:
                # Halve the distance to the minimum (classic bisection),
                # falling back to -1 steps near the floor.
                step = max((value - minimum) // 2, 1)
                candidate = replace(current, **{name: value - step})
                if still_fails(candidate):
                    current = candidate
                    value = getattr(current, name)
                    changed = True
                else:
                    break
    return current


# --------------------------------------------------------------------------- #
# the campaign
# --------------------------------------------------------------------------- #

@dataclass
class FuzzFailure:
    """One shrunk invariant violation."""

    invariant: str
    detail: str
    case: FuzzCase
    shrunk: FuzzCase

    def to_record(self) -> dict[str, Any]:
        """JSONL triage-artifact rendering (see repro.verify.artifacts)."""
        return {
            "kind": "fuzz",
            "invariant": self.invariant,
            "detail": self.detail,
            "seed": self.case.seed,
            "case": asdict(self.case),
            "shrunk": asdict(self.shrunk),
            "repro": self.shrunk.repro_snippet(self.invariant),
        }


@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` campaign."""

    master_seed: int
    cases: int = 0
    checks: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_line(self) -> str:
        status = ("all invariants held" if self.ok
                  else f"{len(self.failures)} invariant violation(s)")
        return (f"fuzz[seed={self.master_seed}]: {self.cases} case(s), "
                f"{self.checks} invariant check(s), {status} "
                f"in {self.elapsed:.1f}s")


def case_seeds(master_seed: int, n: int) -> list[int]:
    """The campaign's per-case seeds (deterministic in ``master_seed``)."""
    rng = np.random.default_rng(np.random.SeedSequence([master_seed]))
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


def run_fuzz(master_seed: int, n: int, *,
             do_shrink: bool = True,
             progress: Callable[[int, int], None] | None = None
             ) -> FuzzReport:
    """Run ``n`` generated cases through every invariant.

    Same ``master_seed`` -> same cases, same order, same verdicts — a CI
    failure reproduces locally from the seed in the log.  Each failing
    (case, invariant) pair is shrunk to a minimal case before reporting.
    """
    if n < 1:
        raise FuzzError(f"need at least one case, got {n}")
    started = time.perf_counter()
    report = FuzzReport(master_seed=master_seed)
    for i, seed in enumerate(case_seeds(master_seed, n)):
        case = FuzzCase.generate(seed)
        failures = check_case(case)
        report.cases += 1
        report.checks += len(INVARIANTS)
        for invariant, detail in failures.items():
            shrunk = case
            if do_shrink:
                shrunk = shrink(
                    case,
                    lambda c, inv=invariant:
                        check_invariant(c, inv) is not None)
            report.failures.append(FuzzFailure(
                invariant=invariant, detail=detail, case=case,
                shrunk=shrunk))
        if progress is not None:
            progress(i + 1, n)
    report.elapsed = time.perf_counter() - started
    return report


__all__ = ["CASE_WALL_TIMEOUT", "CASE_WINDOW", "FuzzCase", "FuzzError",
           "FuzzFailure", "FuzzReport", "INVARIANTS", "POLICY_PALETTE",
           "WARP_PALETTE", "case_seeds", "check_case", "check_invariant",
           "run_fuzz", "shrink"]

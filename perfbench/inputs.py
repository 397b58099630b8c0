"""Seeded workload inputs: sweep job lists and service request plans.

Everything the benchmark feeds the program is generated here, from the
workload seed alone, before any timing starts.  The program only ever
receives the generated :class:`~repro.harness.jobs.SimJob` descriptions.

Sweeps
    The deduplicated E1-E22 cell set (``EXPERIMENT_DESIGNS`` compiled under
    one :class:`~repro.design.env.DesignEnv`) splits into two strata by the
    suite's kernel categories: ``sweep-mem`` holds every cell with at least
    one kernel outside the ``compute`` category (including the E8 MCKE
    pairs), ``sweep-compute`` the rest.  A run executes whole passes over
    its stratum, so every seed runs the same cells and only the kernels'
    random streams (``SimJob.seed``) and the order change.

serve-mixed
    A fixed pool of tiny ``GPUConfig.small()`` jobs (every suite kernel that
    fits the small machine x CTA policy x warp scheduler) is shuffled and
    dealt to the clients.  Each client submits batches of one fresh job
    plus repeats of fingerprints from its own earlier batches; it watches
    each batch to terminal before the next, so every repeat is answered
    from the result cache and the hit count is known in advance.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.design.env import DesignEnv
from repro.harness.experiments import EXPERIMENT_DESIGNS
from repro.harness.jobs import SimJob
from repro.sim.config import GPUConfig
from repro.sim.kernel import KernelResourceError
from repro.workloads.suite import SUITE, make_kernel

#: The seed whose per-job result digests are pinned in ``digests.json``,
#: and the run length they were pinned at (``run_seconds`` in
#: BENCHMARK.json).
DEFAULT_SEED = 1
PIN_SECONDS = 15.0

#: Stratum -> design scale.  Chosen so one pass over the stratum takes
#: about 13 s (sweep-mem) or 3.5 s (sweep-compute) on a 2-vCPU x86 VM
#: running the default (object) core.  sweep-compute runs four short
#: passes rather than two long ones: its percentiles are taken over cells,
#: each at its median over the passes, which halved their spread.
SWEEP_SCALE = {"sweep-mem": 0.01, "sweep-compute": 0.02}

#: Stratum -> nominal seconds of one pass (sets the pass count per run).
SWEEP_PASS_SECONDS = {"sweep-mem": 15.0, "sweep-compute": 3.75}

SWEEPS = tuple(SWEEP_SCALE)


def derived_seed(seed: int, index: int) -> int:
    """The ``index``-th job seed derived from a workload seed (index 0 is
    the workload seed itself)."""
    return seed if index == 0 else random.Random(f"{seed}:{index}").getrandbits(31)


def is_compute_cell(job: SimJob) -> bool:
    """Whether every kernel of a cell is in the suite's compute category."""
    return all(SUITE[name].category == "compute" for name in job.names)


def compile_all(scale: float, seed: int) -> list[SimJob]:
    """The deduplicated E1-E22 job set in first-seen order."""
    env = DesignEnv(scale=scale, seed=seed)
    jobs: list[SimJob] = []
    seen: set[str] = set()
    for builder in EXPERIMENT_DESIGNS.values():
        for compiled in builder().compile(env):
            fingerprint = compiled.job.fingerprint()
            if fingerprint not in seen:
                seen.add(fingerprint)
                jobs.append(compiled.job)
    return jobs


def stratum(jobs: list[SimJob], workload: str) -> list[SimJob]:
    """The cells of ``jobs`` that belong to one sweep workload."""
    want_compute = workload == "sweep-compute"
    return [job for job in jobs if is_compute_cell(job) == want_compute]


def sweep_passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / SWEEP_PASS_SECONDS[workload]))


def sweep_jobs(workload: str, seed: int, seconds: float) -> list[SimJob]:
    """The job list of one sweep run: whole passes over the stratum, pass
    ``k`` at derived seed ``k``, each pass in its own seeded order."""
    jobs: list[SimJob] = []
    for index in range(sweep_passes(workload, seconds)):
        job_seed = derived_seed(seed, index)
        cells = stratum(compile_all(SWEEP_SCALE[workload], job_seed), workload)
        random.Random(f"order:{job_seed}").shuffle(cells)
        jobs.extend(cells)
    return jobs


def pinned_jobs(workload: str) -> list[SimJob]:
    """The jobs whose digests are pinned: the default seed's at
    ``PIN_SECONDS`` (fresh jobs only, for serve-mixed)."""
    if workload == "serve-mixed":
        return [batch[0].job for plan in serve_plan(DEFAULT_SEED, PIN_SECONDS)
                for batch in plan]
    return sweep_jobs(workload, DEFAULT_SEED, PIN_SECONDS)


def warmup_job(seed: int) -> SimJob:
    """The untimed warm-up job: tiny, and in neither sweep stratum nor the
    service pool (its scale differs)."""
    return SimJob(names=("compute",), scale=0.01, seed=seed,
                  config=GPUConfig.small())


def job_identity(job: SimJob) -> dict:
    """A job's inputs, as its fingerprint hashes them but without the
    simulator's version salt."""
    identity = {key: value for key, value in job.to_payload().items()
                if key not in ("timeline_window", "trace", "backend")}
    if job.timeline_window is not None:
        identity["timeline_window"] = job.timeline_window
    if job.trace:
        identity["trace"] = True
    return identity


def cell_key(job: SimJob) -> str:
    """A job's identity without its seed: the same cell in every pass."""
    identity = job_identity(job)
    del identity["seed"]
    return json.dumps(identity, sort_keys=True)


def job_label(job: SimJob) -> str:
    """A short human-readable name for error messages."""
    policy = ":".join(str(part) for part in job.policy)
    return (f"{'+'.join(job.names)} policy={policy} warp={job.warp} "
            f"scale={job.scale:g} seed={job.seed} fp={job.fingerprint()[:12]}")


# --------------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------------- #

SERVE_CLIENTS = 2
SERVE_SCALE = 0.02
SERVE_POLICIES = (("rr",), ("static", 1), ("lcs",))
SERVE_WARPS = ("gto", "lrr", "baws")
#: Repeats submitted with each fresh job (so 3/4 of submissions repeat).
SERVE_REPEATS_PER_BATCH = 3
#: Fresh jobs per second of run time: two whole pools of 189 jobs per 15 s
#: (whole pools, so every seed runs the same kernel mix).  The window of a
#: 15 s run, 378 fresh jobs and 1128 repeats, lasts ~18 s on a 2-vCPU x86
#: VM running the default core.
SERVE_FRESH_PER_SECOND = 25.2


@dataclass(frozen=True)
class Request:
    """One submission of a client's plan."""

    id: str
    job: SimJob
    repeat_of: str | None = None   # id of the fresh submission repeated

    @property
    def repeat(self) -> bool:
        return self.repeat_of is not None


def serve_pool(seed: int) -> list[SimJob]:
    """Every distinct fresh job of one pool, in canonical order."""
    config = GPUConfig.small()
    pool = []
    for name in SUITE:
        try:
            make_kernel(name, scale=SERVE_SCALE, seed=seed).max_ctas_per_sm(config)
        except KernelResourceError:
            continue
        for policy in SERVE_POLICIES:
            for warp in SERVE_WARPS:
                pool.append(SimJob(names=(name,), scale=SERVE_SCALE, seed=seed,
                                   policy=policy, warp=warp, config=config))
    return pool


def serve_plan(seed: int, seconds: float) -> list[list[list[Request]]]:
    """Per client, the ordered batches of requests of one run.

    Fresh jobs come from successive pools (pool ``k`` at derived seed
    ``k``), shuffled and dealt round-robin to the clients.  Repeats name
    only fresh jobs of the same client's *earlier* batches.
    """
    wanted = max(SERVE_CLIENTS, round(seconds * SERVE_FRESH_PER_SECOND))
    fresh: list[SimJob] = []
    index = 0
    while len(fresh) < wanted:
        pool = serve_pool(derived_seed(seed, index))
        random.Random(f"deal:{seed}:{index}").shuffle(pool)
        fresh.extend(pool)
        index += 1
    fresh = fresh[:wanted]
    plans: list[list[list[Request]]] = []
    for client in range(SERVE_CLIENTS):
        rng = random.Random(f"repeats:{seed}:{client}")
        done: list[Request] = []
        batches = []
        for number, job in enumerate(fresh[client::SERVE_CLIENTS]):
            head = Request(id=f"c{client}-b{number}-0", job=job)
            batch = [head]
            if done:
                for slot in range(1, SERVE_REPEATS_PER_BATCH + 1):
                    original = rng.choice(done)
                    batch.append(Request(id=f"c{client}-b{number}-{slot}",
                                         job=original.job,
                                         repeat_of=original.id))
            batches.append(batch)
            done.append(head)
        plans.append(batches)
    return plans

"""Object-vs-vector backend parity: the bitwise contract, tested directly.

The vector backend (:mod:`repro.sim.vector`) is only allowed to exist
because it reproduces the object core exactly.  These tests enforce that
contract head-on:

* the pinned 12-cell cross-check matrix (every supported warp scheduler x
  every paper-relevant CTA policy, plus the multi-kernel cell) runs on
  both backends and must diff clean on every leaf of ``to_dict()``;
* telemetry riders (timeline window + trace) must match bitwise too —
  parity covers all three drift lanes, not just headline stats;
* the membership schedulers (``two-level``, ``swl``) match on whole runs
  and, for the eviction rule, when driven directly;
* ``simulate()`` routes the requests the vector core cannot honour
  (checkpoints, resume, saboteurs, custom factories) to the object core,
  and those runs match an uninterrupted default run bitwise;
* the ``repro-verify`` parity layer (:mod:`repro.verify.backends`) is
  exercised for matrix construction, sweep verdicts and its guard rails.
"""

from dataclasses import replace

import pytest

from repro.core.warp_schedulers import (GTOScheduler, TwoLevelScheduler,
                                        swl_factory)
from repro.design import Campaign, Design, DesignEnv, Factor, Journal
from repro.design.journal import JOURNAL_NAME
from repro.harness import runner
from repro.harness.checkpoints import CheckpointPlan, CheckpointStore
from repro.harness.engine import run_batch
from repro.harness.faults import FaultPlan
from repro.harness.jobs import SimJob, build_policy
from repro.harness.runner import simulate
from repro.harness.validate import DEFAULT_BACKEND
from repro.sim.config import GPUConfig
from repro.sim.isa import Op, alu, exit_, load
from repro.sim.vector import (VECTOR_WARP_SCHEDULERS, VectorBackendError,
                              VectorGPU, ensure_numpy, vector_supported)
from repro.sim.vector.core import VectorSM
from repro.sim.vector.sched import MAX_LAST_ISSUE
from repro.sim.warp import WarpState
from repro.verify.backends import (ParityReport, ParityVerdict,
                                   parity_matrix, verify_backends)
from repro.verify.golden import (GoldenCell, GoldenError, canonical_result,
                                 diff_paths, golden_matrix)
from repro.verify.refmodel import crosscheck_matrix

SMALL = GPUConfig.small()


def _job_label(job):
    policy = "+".join(str(p) for p in job.policy if p is not None)
    return f"{'+'.join(job.names)}-{policy}-{job.warp}"


CROSSCHECK = crosscheck_matrix()


# --------------------------------------------------------------------------- #
# the pinned cross-check matrix, object vs vector
# --------------------------------------------------------------------------- #

class TestCrosscheckParity:
    def test_matrix_is_the_pinned_twelve_cells(self):
        # The parity sweep below only means something if the matrix keeps
        # its breadth: every supported warp x policy pairing present.
        assert len(CROSSCHECK) == 12
        assert all(vector_supported(job.warp) for job in CROSSCHECK)

    @pytest.mark.parametrize("job", CROSSCHECK, ids=_job_label)
    def test_vector_matches_object_bitwise(self, job):
        obj = replace(job, backend="object").execute().to_dict()
        vec = replace(job, backend="vector").execute().to_dict()
        diffs = diff_paths(canonical_result(obj), canonical_result(vec))
        assert not diffs, (
            f"{_job_label(job)}: vector backend diverged from the object "
            f"core at {len(diffs)} leaf path(s); first: {diffs[:3]}")


def _assert_parity(job):
    obj = replace(job, backend="object").execute().to_dict()
    vec = replace(job, backend="vector").execute().to_dict()
    diffs = diff_paths(canonical_result(obj), canonical_result(vec))
    assert not diffs, (
        f"{_job_label(job)}: vector backend diverged from the object core "
        f"at {len(diffs)} leaf path(s); first: {diffs[:3]}")


@pytest.fixture
def member_events(monkeypatch):
    """Counts the vector core's member-set removals by cause."""
    events = {"evict": 0, "demote": 0, "release": 0}
    original = VectorSM._member_issue

    def spy(self, sched, slot, op):
        before = set(sched.members)
        original(self, sched, slot, op)
        for gone in before - set(sched.members):
            if gone != slot:
                events["evict"] += 1
            elif op == Op.EXIT:
                events["release"] += 1
            else:
                events["demote"] += 1

    monkeypatch.setattr(VectorSM, "_member_issue", spy)
    return events


class TestMembershipParity:
    @pytest.mark.parametrize("name", ["kmeans", "stencil", "bfs"])
    def test_two_level_matches_object(self, name, member_events):
        job = SimJob(names=(name,), scale=0.05, warp="two-level",
                     policy=("rr",), config=SMALL)
        _assert_parity(job)
        # The run evicted from full active sets and demoted on memory
        # issues, so both membership paths were compared.
        assert member_events["evict"] and member_events["demote"]

    @pytest.mark.parametrize("limit", [1, 4, 16])
    @pytest.mark.parametrize("name", ["kmeans", "streaming"])
    def test_swl_matches_object(self, name, limit, member_events):
        job = SimJob(names=(name,), scale=0.05, warp=("swl", limit),
                     policy=("lcs",), config=SMALL)
        _assert_parity(job)
        # Members left only by exiting, which let later warps in.
        assert member_events["release"]
        assert not member_events["evict"] and not member_events["demote"]

    @pytest.mark.parametrize("wait_mem", [False, True],
                             ids=["oldest-victim", "wait-mem-victim"])
    def test_two_level_eviction_rule_matches_object(self, wait_mem):
        # In a whole run an active member is never WAIT_MEM (issuing a
        # memory instruction demotes it first), so the WAIT_MEM-first
        # eviction is compared by driving both schedulers directly.
        class FakeWarp:
            def __init__(self):
                self.state = WarpState.READY
                self.program = [alu()]
                self.pc = 1
                self.last_issue = -1

        size = TwoLevelScheduler.ACTIVE_SET_SIZE
        warps = [FakeWarp() for _ in range(size + 3)]
        obj = TwoLevelScheduler()
        sm = VectorGPU(config=SMALL, warp_scheduler="two-level").sms[0]
        sched = sm._vsched[0]
        sm._state.extend([0] * len(warps))

        def issue(index, instruction):
            warps[index].program = [instruction]
            obj.on_issue(warps[index], 0)
            sm._member_issue(sched, index, int(instruction.op))
            assert list(sched.members) == [warps.index(w)
                                           for w in obj._active]

        for index in range(size):
            issue(index, alu())
        issue(2, load([7]))            # demote: the set has room again
        issue(size, alu())
        if wait_mem:
            for index in (5, 3):
                warps[index].state = WarpState.WAIT_MEM
                sm._state[index] = int(WarpState.WAIT_MEM)
        issue(size + 1, alu())         # full: evict
        issue(size + 2, exit_())       # full: evict again
        evicted = [i for i in range(size + 1)
                   if i != 2 and i not in sched.members]
        assert evicted == ([3, 5] if wait_mem else [0, 1])


class TestRouting:
    """``simulate()`` runs what the vector core cannot honour on the
    object core, and the results match an uninterrupted default run."""

    JOB = SimJob(names=("kmeans",), scale=0.05, policy=("lcs",),
                 config=SMALL)

    @pytest.fixture
    def vector_builds(self, monkeypatch):
        built = []

        class CountingVectorGPU(VectorGPU):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("warp_scheduler"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runner, "VectorGPU", CountingVectorGPU)
        return built

    @pytest.fixture(scope="class")
    def reference(self):
        return canonical_result(self.JOB.execute().to_dict())

    def _assert_matches(self, result, reference):
        diffs = diff_paths(reference, canonical_result(result.to_dict()))
        assert not diffs, diffs[:3]

    def test_default_run_uses_vector_core(self, vector_builds, reference):
        self._assert_matches(self.JOB.execute(), reference)
        assert vector_builds == ["gto"]

    def test_checkpoint_plan_and_resume(self, tmp_path, vector_builds,
                                        reference):
        plan = CheckpointPlan(interval=500, root=str(tmp_path))
        self._assert_matches(self.JOB.execute(checkpoint=plan), reference)
        snapshot = CheckpointStore(tmp_path).newest(self.JOB.fingerprint())
        assert snapshot is not None and snapshot.cycle > 0
        self._assert_matches(self.JOB.execute(resume_from=snapshot),
                             reference)
        assert vector_builds == []

    def test_kill_at_saboteur(self, tmp_path, vector_builds, reference):
        plan = CheckpointPlan(interval=500, root=str(tmp_path / "ckpt"))
        faults = FaultPlan.parse("kill-at:0:1500",
                                 state_dir=str(tmp_path / "faults"))
        report = run_batch([self.JOB], workers=1, retries=2, faults=faults,
                           checkpoints=plan, backoff=0.0)
        [outcome] = report.outcomes
        assert outcome.status == "ok" and outcome.attempts == 2
        assert outcome.resumed_from is not None
        self._assert_matches(outcome.result, reference)
        assert vector_builds == []

    def test_custom_factory(self, vector_builds, reference):
        def factory():
            return GTOScheduler()
        factory.name = "gto"
        kernels = self.JOB.build_kernels()
        result = simulate(kernels, config=SMALL, warp_scheduler=factory,
                          cta_scheduler=build_policy(self.JOB.policy,
                                                     kernels))
        self._assert_matches(result, reference)
        assert vector_builds == []

    def test_max_cycles_beyond_packed_key_range(self, vector_builds):
        job = replace(self.JOB, config=replace(
            SMALL, max_cycles=MAX_LAST_ISSUE + 1))
        obj = replace(job, backend="object").execute().to_dict()
        assert diff_paths(obj, job.execute().to_dict()) == []
        assert vector_builds == []


class TestDefaultBackend:
    def test_default_backend_is_vector(self):
        assert DEFAULT_BACKEND == "vector"
        assert SimJob(names=("kmeans",)).backend == "vector"
        assert DesignEnv().backend == "vector"

    def test_payload_without_backend_gets_the_default(self):
        job = SimJob(names=("kmeans",), scale=0.05, backend="object")
        payload = job.to_payload()
        del payload["backend"]
        assert SimJob.from_payload(payload).backend == DEFAULT_BACKEND
        env = DesignEnv(backend="object").to_payload()
        del env["backend"]
        assert DesignEnv.from_payload(env).backend == DEFAULT_BACKEND

    def test_payload_with_explicit_object_keeps_it(self):
        job = SimJob(names=("kmeans",), scale=0.05, backend="object")
        assert SimJob.from_payload(job.to_payload()).backend == "object"
        env = DesignEnv(backend="object")
        assert DesignEnv.from_payload(env.to_payload()).backend == "object"

    def test_pre_change_campaign_journal_replays(self, tmp_path):
        design = Design("legacy-backend", factors=[
            Factor.crossed("bench", ("kmeans", "streaming")),
            Factor.crossed("policy", (("rr",),)),
        ])
        root = tmp_path / "camp"
        # A store written while the object core was the default: its env
        # and every job payload say "object", and cell 0 is journaled
        # done.
        old = Campaign.open(design, DesignEnv(scale=0.02, backend="object"),
                            root=root)
        assert all(cell.job["backend"] == "object" for cell in old.cells)
        first = SimJob.from_payload(old.cells[0].job).execute()
        Journal(old.path / JOURNAL_NAME, worker="old").append(
            "done", cell=0, fingerprint=old.cells[0].fingerprint,
            cycles=first.cycles, ipc=first.ipc)

        # Reopened under the new default: the same store (the digest is
        # backend-free), the journal replayed, the stored backend kept.
        new = Campaign.open(design, DesignEnv(scale=0.02), root=root)
        assert new.path == old.path
        assert new.env.backend == "object"
        assert new.counts()["done"] == 1
        report = new.run()
        assert report.ok and report.executed == 1
        new.refresh()
        for cell in new.cells:
            job = SimJob.from_payload(cell.job)
            assert job.backend == "object"
            fresh = replace(job, backend=DEFAULT_BACKEND).execute()
            assert (cell.cycles, cell.ipc) == (fresh.cycles, fresh.ipc)


class TestTelemetryParity:
    def test_timeline_and_trace_lanes_match(self):
        # Riders exercise the windowed-timeline and event-trace paths the
        # headline stats never touch.
        job = SimJob(names=("kmeans",), scale=0.05, warp="gto",
                     policy=("lcs",), config=SMALL, timeline_window=200,
                     trace=True)
        obj = replace(job, backend="object").execute().to_dict()
        vec = replace(job, backend="vector").execute().to_dict()
        assert obj["meta"].get("timeline"), "rider did not produce a timeline"
        assert diff_paths(canonical_result(obj), canonical_result(vec)) == []


# --------------------------------------------------------------------------- #
# capability surface
# --------------------------------------------------------------------------- #

class TestCapability:
    def test_supported_set_is_the_pinned_five(self):
        assert VECTOR_WARP_SCHEDULERS == {"lrr", "gto", "baws",
                                          "two-level", "swl"}

    @pytest.mark.parametrize("warp", sorted(VECTOR_WARP_SCHEDULERS))
    def test_supported_warps(self, warp):
        assert vector_supported(warp)

    @pytest.mark.parametrize("warp", [("swl", 1), ("swl", 16)],
                             ids=["swl1", "swl16"])
    def test_swl_descriptor_and_factory_supported(self, warp):
        assert vector_supported(warp)
        assert vector_supported(swl_factory(warp[1]))

    @pytest.mark.parametrize("warp", ["nope", ("swl",), ("lrr", 2),
                                      ("swl", "8")],
                             ids=["nope", "swl-no-limit", "lrr-tuple",
                                  "swl-str-limit"])
    def test_unsupported_warps(self, warp):
        assert not vector_supported(warp)

    def test_custom_factory_is_object_only(self):
        assert not vector_supported(GTOScheduler)
        assert not vector_supported(lambda: TwoLevelScheduler())

    def test_non_string_descriptors_are_object_only(self):
        # Instantiated scheduler objects carry state the vector core
        # cannot adopt; only string descriptors qualify.
        assert not vector_supported(object())

    def test_ensure_numpy_passes_here(self):
        # The test environment has numpy; the actionable-error branch is
        # covered by the error-message contract below.
        ensure_numpy()

    def test_backend_not_fingerprint_relevant(self):
        job = CROSSCHECK[0]
        assert (replace(job, backend="vector").fingerprint()
                == replace(job, backend="object").fingerprint())

    def test_simjob_rejects_unknown_backend(self):
        with pytest.raises(Exception):
            SimJob(names=("kmeans",), scale=0.05, config=SMALL,
                   backend="quantum")

    def test_vector_gpu_rejects_unsupported_scheduler(self):
        with pytest.raises(VectorBackendError):
            VectorGPU(config=SMALL, warp_scheduler=lambda: GTOScheduler())


# --------------------------------------------------------------------------- #
# the repro-verify parity layer
# --------------------------------------------------------------------------- #

class TestParityLayer:
    def test_parity_matrix_filters_object_only_cells(self):
        full = golden_matrix("smoke")
        cells = parity_matrix("smoke")
        assert 0 < len(cells) < len(full) or all(
            vector_supported(c.job.warp) for c in full)
        assert all(vector_supported(c.job.warp) for c in cells)
        assert {c.label for c in cells} <= {c.label for c in full}

    def test_verify_backends_ok_on_parity_cells(self):
        cells = [GoldenCell("cell-a",
                            SimJob(names=("kmeans",), scale=0.05,
                                   warp="gto", policy=("rr",),
                                   config=SMALL))]
        report = verify_backends(cells)
        assert isinstance(report, ParityReport)
        assert report.ok
        assert report.count("ok") == 1
        assert "1 ok" in report.summary_line()
        verdict = report.verdicts[0]
        assert verdict.status == "ok"
        assert verdict.to_record()["kind"] == "backend"

    def test_verify_backends_rejects_unsupported_cells(self):
        job = SimJob(names=("kmeans",), scale=0.05, policy=("rr",),
                     config=SMALL)
        # SimJob validation admits only descriptors, so plant the custom
        # factory past it: the sweep's own guard must still catch it.
        object.__setattr__(job, "warp", lambda: GTOScheduler())
        cells = [GoldenCell("cell-a", job)]
        with pytest.raises(GoldenError, match="vector backend"):
            verify_backends(cells)

    def test_parity_matrix_keeps_membership_cells(self):
        labels = {c.label for c in parity_matrix("full")}
        assert {"stencil-rr-twolevel-small", "kmeans-rr-twolevel-fermi",
                "kmeans-rr-swl8-fermi"} <= labels
        assert len(parity_matrix("full")) == len(golden_matrix("full"))

    def test_verify_backends_rejects_duplicate_labels(self):
        cell = GoldenCell("cell-a",
                          SimJob(names=("kmeans",), scale=0.05,
                                 warp="gto", policy=("rr",), config=SMALL))
        with pytest.raises(GoldenError, match="duplicate"):
            verify_backends([cell, cell])

    def test_diff_verdict_renders_lanes_and_paths(self):
        verdict = ParityVerdict(
            "cell-a", "f" * 12, "diff", lanes=["stats"],
            diffs={"stats": [("cycles", 10, 11)]})
        record = verdict.to_record()
        assert record["status"] == "diff"
        assert record["diffs"]["stats"] == [
            {"path": "cycles", "object": 10, "vector": 11}]

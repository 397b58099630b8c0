"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate     # noqa: E402
import inputs   # noqa: E402
import metrics  # noqa: E402
import run      # noqa: E402
import serve    # noqa: E402
import sweep    # noqa: E402
from repro.harness import jobs as jobs_module  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = SPEC["run_seconds"]


def fingerprints(jobs):
    return [job.fingerprint() for job in jobs]


def plan_shape(plans):
    return [[[(r.id, r.job.fingerprint(), r.repeat_of) for r in batch]
             for batch in plan] for plan in plans]


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("scale", sorted(set(inputs.SWEEP_SCALE.values())))
def test_strata_partition_the_all_set(scale):
    jobs = inputs.compile_all(scale, inputs.DEFAULT_SEED)
    mem = set(fingerprints(inputs.stratum(jobs, "sweep-mem")))
    compute = set(fingerprints(inputs.stratum(jobs, "sweep-compute")))
    assert mem and compute
    assert not mem & compute
    assert mem | compute == set(fingerprints(jobs))
    assert len(jobs) == len(set(fingerprints(jobs)))
    # The E8 MCKE pairs (a memory kernel with a compute kernel) are mem cells.
    pairs = [job for job in jobs if len(job.names) == 2]
    assert pairs and all(job.fingerprint() in mem for job in pairs)


@pytest.mark.parametrize("workload", inputs.SWEEPS)
def test_sweep_jobs_follow_the_seed(workload):
    first = fingerprints(inputs.sweep_jobs(workload, 7, SECONDS))
    assert first == fingerprints(inputs.sweep_jobs(workload, 7, SECONDS))
    assert first != fingerprints(inputs.sweep_jobs(workload, 8, SECONDS))
    jobs = inputs.sweep_jobs(workload, 7, SECONDS)
    assert jobs[0].seed == 7
    assert len(jobs) >= 100


def test_serve_plan_follows_the_seed():
    first = plan_shape(inputs.serve_plan(7, SECONDS))
    assert first == plan_shape(inputs.serve_plan(7, SECONDS))
    assert first != plan_shape(inputs.serve_plan(8, SECONDS))


def test_repeats_name_only_the_clients_own_earlier_batches():
    plans = inputs.serve_plan(7, SECONDS)
    assert len(plans) == inputs.SERVE_CLIENTS
    fresh = [batch[0] for plan in plans for batch in plan]
    assert not any(request.repeat for request in fresh)
    assert len({r.job.fingerprint() for r in fresh}) == len(fresh) >= 100
    repeats = 0
    for plan in plans:
        earlier: dict[str, str] = {}
        for batch in plan:
            for request in batch[1:]:
                assert request.repeat_of in earlier
                assert request.job.fingerprint() == earlier[request.repeat_of]
                repeats += 1
            earlier[batch[0].id] = batch[0].job.fingerprint()
    submissions = len(fresh) + repeats
    assert 0.7 < repeats / submissions < 0.8


def test_pinned_digests_cover_the_default_seed():
    assert inputs.PIN_SECONDS == SECONDS
    expected = {
        workload: {gate.job_key(job) for job in
                   inputs.sweep_jobs(workload, inputs.DEFAULT_SEED, SECONDS)}
        for workload in inputs.SWEEPS}
    expected["serve-mixed"] = {
        gate.job_key(batch[0].job)
        for plan in inputs.serve_plan(inputs.DEFAULT_SEED, SECONDS)
        for batch in plan}
    for workload, keys in expected.items():
        assert {gate.job_key(job) for job in inputs.pinned_jobs(workload)} \
            == keys
        assert set(gate.load_pinned(workload)) == keys


# --------------------------------------------------------------------------- #
# BENCHMARK.json
# --------------------------------------------------------------------------- #

def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == metrics.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_result_line_refuses_a_wrong_metric_set():
    values = {name: 1.0 for name in metrics.END_TO_END}
    line = json.loads(metrics.result_line(correct=True, attempted=1, failed=0,
                                          values=values, trace=False))
    assert {name: m["unit"] for name, m in line["metrics"].items()} \
        == metrics.END_TO_END
    del values["setup_s"]
    with pytest.raises(ValueError):
        metrics.result_line(correct=True, attempted=1, failed=0,
                            values=values, trace=False)


# --------------------------------------------------------------------------- #
# the digest gate
# --------------------------------------------------------------------------- #

def test_digest_gate_rejects_a_tampered_result(tmp_path):
    job = inputs.warmup_job(3)
    result = job.execute()
    pinned = {gate.job_key(job): gate.digest_of(result)}
    tampered = copy.deepcopy(result)
    tampered.l2.evictions += 1          # passes validate_run, changes digest

    good = gate.Gate("t", 3, pinned=pinned, state_dir=tmp_path)
    assert good.check("warm-up", job, result)
    assert good.ok
    bad = gate.Gate("t", 3, pinned=pinned, state_dir=tmp_path)
    assert not bad.check("warm-up", job, tampered)
    assert bad.errors[0].startswith("warm-up: result digest")

    # Without pins, a seed's recorded digests catch the tampering on repeat.
    good.save()
    repeat = gate.Gate("t", 3, pinned=None, state_dir=tmp_path)
    assert not repeat.check("warm-up", job, tampered)
    assert gate.Gate("t", 3, pinned=None, state_dir=tmp_path).check(
        "warm-up", job, result)


def test_pins_survive_a_version_bump(monkeypatch, tmp_path):
    job = inputs.warmup_job(3)
    result = job.execute()
    tampered = copy.deepcopy(result)
    tampered.l2.evictions += 1
    pinned = {gate.job_key(job): gate.digest_of(result)}
    fingerprint = job.fingerprint()
    monkeypatch.setattr(jobs_module, "SIM_VERSION", jobs_module.SIM_VERSION + 1)
    assert job.fingerprint() != fingerprint
    # The pin is still found, so a changed result still fails the gate.
    checker = gate.Gate("t", 3, pinned=pinned, state_dir=tmp_path)
    assert checker.check("warm-up", job, result)
    assert not checker.check("warm-up", job, tampered)


def test_a_job_without_a_pin_fails_the_gate(tmp_path):
    job = inputs.warmup_job(3)
    result = job.execute()
    pinned = {gate.job_key(job): gate.digest_of(result)}
    # A changed config value (as a new config field would) changes the key.
    changed = dataclasses.replace(
        job, config=dataclasses.replace(job.config,
                                        num_sms=job.config.num_sms + 1))
    checker = gate.Gate("t", 3, pinned=pinned, state_dir=tmp_path)
    assert not checker.check("changed", changed, result)
    assert "no pinned digest" in checker.errors[0]


def test_canary_checks_pinned_jobs_at_any_seed(tmp_path):
    pinned = gate.load_pinned("serve-mixed")
    assert gate.canary("serve-mixed", pinned, tmp_path) == []
    first = inputs.pinned_jobs("serve-mixed")[0]
    tampered = dict(pinned)
    tampered[gate.job_key(first)] = "0" * gate.KEY_LEN
    errors = gate.canary("serve-mixed", tampered, tmp_path)
    assert len(errors) == 1 and "differs from expected" in errors[0]


def test_unreadable_pins_fail_the_run(monkeypatch, tmp_path):
    monkeypatch.setattr(gate, "PINNED", tmp_path / "missing.json")
    with pytest.raises(gate.PinError):
        gate.load_pinned("sweep-mem")
    (tmp_path / "missing.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(gate.PinError):
        gate.load_pinned("sweep-mem")
    assert run.main(["--workload", "sweep-mem", "--seconds", "1"]) == 1


# --------------------------------------------------------------------------- #
# small end-to-end runs
# --------------------------------------------------------------------------- #

def small_sweep(monkeypatch, tmp_path, trace):
    jobs = inputs.sweep_jobs("sweep-mem", 5, SECONDS)[:4]
    monkeypatch.setattr(inputs, "sweep_jobs", lambda *args: list(jobs))
    checker = gate.Gate("sweep-mem", 5, pinned=None, state_dir=tmp_path)
    outcome = sweep.run("sweep-mem", 5, SECONDS, trace, time.perf_counter(),
                        lambda: [0.1], tmp_path / "tmp", checker)
    assert checker.ok, checker.errors
    return outcome


def test_sweep_run_reports_every_end_to_end_metric(monkeypatch, tmp_path):
    outcome = small_sweep(monkeypatch, tmp_path, trace=False)
    line = json.loads(metrics.result_line(
        correct=True, attempted=outcome["attempted"],
        failed=outcome["failed"], values=outcome["values"], trace=False))
    assert line["failed"] == 0
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_sweep_counts_repeat_exactly(monkeypatch, tmp_path):
    first = small_sweep(monkeypatch, tmp_path / "a", trace=True)["values"]
    second = small_sweep(monkeypatch, tmp_path / "b", trace=True)["values"]
    counts = {k: v for k, v in first.items() if k.endswith(".calls")}
    assert counts == {k: v for k, v in second.items() if k.endswith(".calls")}
    assert counts["mem.calls"] > 0 and counts["sim.events.calls"] > 0
    assert counts["service.protocol.calls"] == 0
    assert first["harness.cache.hit_ratio"] == 0.0
    assert set(first) == set(metrics.PER_LAYER)


def small_serve(tmp_path, trace):
    checker = gate.Gate("serve-mixed", 5, pinned=None, state_dir=tmp_path)
    outcome = serve.run(ROOT, 5, 0.5, trace, time.perf_counter(),
                        lambda: [0.1], tmp_path / "tmp", checker)
    assert checker.ok, checker.errors
    return outcome


def test_serve_run_answers_repeats_from_the_cache(tmp_path):
    outcome = small_serve(tmp_path, trace=False)
    assert outcome["failed"] == 0
    assert set(outcome["values"]) == set(metrics.END_TO_END)
    assert outcome["values"]["hit_p50_ms"] > 0


def test_traced_serve_counts_repeat_exactly(tmp_path):
    first = small_serve(tmp_path / "a", trace=True)["values"]
    second = small_serve(tmp_path / "b", trace=True)["values"]
    # Admission pops include the dispatcher's idle polls, which depend on
    # timing; every other service layer's count is fixed by the plan.
    for layer in ("service.protocol", "service.journal", "harness.cache",
                  "service.supervisor"):
        assert first[f"{layer}.calls"] == second[f"{layer}.calls"] > 0
    assert first["harness.cache.hit_ratio"] > 0

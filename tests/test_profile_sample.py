"""Smoke test for ``benchmarks/profile_sample.py`` (the sampling profiler)."""

import importlib.util
import signal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "profile_sample", ROOT / "benchmarks" / "profile_sample.py")
profile_sample = importlib.util.module_from_spec(spec)
spec.loader.exec_module(profile_sample)


@pytest.mark.skipif(not hasattr(signal, "setitimer"),
                    reason="needs POSIX interval timers")
def test_two_job_profile_reports_shares(tmp_path):
    jobs = profile_sample.workload_jobs("sweep-mem", seed=1, seconds=15.0)[:2]
    before = signal.getsignal(signal.SIGPROF)
    report = profile_sample.profile_jobs(jobs, interval=0.0005)
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert report["jobs"] == 2
    assert report["samples"] > 0
    for table in ("functions", "layers"):
        assert sum(report[table].values()) == pytest.approx(1.0)
    # The simulator's own layers carry the profile.
    assert set(report["layers"]) & {"sim.sm", "sim.gpu", "mem"}
    text = profile_sample.render(report, top=5)
    assert "layer self-time shares" in text


def test_layer_mapping():
    assert profile_sample.layer_of("/x/src/repro/sim/vector/core.py") == "sim.sm"
    assert profile_sample.layer_of("/x/src/repro/sim/vector/gpu.py") == "sim.gpu"
    assert profile_sample.layer_of("/x/src/repro/mem/dram.py") == "mem"
    assert profile_sample.layer_of("/x/src/repro/sim/kernel.py") == "workloads"
    assert profile_sample.layer_of("/usr/lib/python3/heapq.py") is None


def test_main_writes_json(tmp_path, capsys):
    out = tmp_path / "profile.json"
    assert profile_sample.main(["--workload", "sweep-compute", "--limit", "2",
                                "--top", "3", "--json", str(out)]) == 0
    assert "top 3 functions" in capsys.readouterr().out
    assert out.read_text().startswith("{")

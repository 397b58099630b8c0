"""The per-process trace memo (:mod:`repro.sim.kernel`).

Suite kernels made by ``make_kernel`` serve their column traces from a
bounded, LRU-evicted memo keyed by ``(name, scale, seed)``.  These tests
pin what makes that safe:

* a memo hit is row-for-row the trace a fresh build produces, for every
  suite kernel;
* kernels whose traces are not a pure function of a key (replay, fuzz,
  hand-built) are never memoized;
* the compact latency column falls back to a tuple past 255 cycles;
* the row budget evicts least recently used kernels and refuses kernels
  larger than itself;
* a job run cold and then warm in one process gives the same result.
"""

import sys
import threading
from dataclasses import replace

import pytest

from repro.harness.jobs import SimJob
from repro.harness.runner import simulate
from repro.sim import kernel as kernel_mod
from repro.sim.config import GPUConfig
from repro.sim.isa import alu, exit_, load, program_columns
from repro.sim.kernel import (Kernel, clear_trace_memo, trace_memo_stats)
from repro.verify.fuzzer import FuzzCase
from repro.verify.golden import canonical_result, diff_paths
from repro.workloads.fuzz import random_kernel
from repro.workloads.suite import SUITE, make_kernel
from repro.workloads.tracefile import load_kernel_trace, save_kernel_trace

SMALL = GPUConfig.small()


@pytest.fixture(autouse=True)
def empty_memo():
    clear_trace_memo()
    yield
    clear_trace_memo()


def _rows(program):
    """A column trace as ``(op, latency, lines)`` rows."""
    return [(op, latency, program.lines.get(pc, ()))
            for pc, (op, latency) in enumerate(zip(program.ops, program.lat))]


def _fresh_rows(kernel, cta_id, warp_idx):
    """The warp's trace built with the memo out of the way."""
    fresh = Kernel(kernel.name, kernel.num_ctas, kernel.warps_per_cta,
                   kernel._builder)
    return _rows(fresh.build_warp_columns(cta_id, warp_idx))


def _instruction_rows(kernel, cta_id, warp_idx):
    return [(int(inst.op), inst.latency, inst.lines)
            for inst in kernel.build_warp_program(cta_id, warp_idx)]


class TestMemoHits:
    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_hit_equals_fresh_build(self, name):
        kernel = make_kernel(name, scale=0.05, seed=11)
        warps = [(0, 0), (kernel.num_ctas - 1, kernel.warps_per_cta - 1)]
        for cta_id, warp_idx in warps:
            first = kernel.build_warp_columns(cta_id, warp_idx)
            # A second kernel from the same arguments shares the memo.
            again = make_kernel(name, scale=0.05, seed=11)
            hit = again.build_warp_columns(cta_id, warp_idx)
            assert hit is first
            rows = _rows(hit)
            assert rows == _fresh_rows(kernel, cta_id, warp_idx)
            assert rows == _instruction_rows(kernel, cta_id, warp_idx)
        assert trace_memo_stats()["keys"] == 1

    def test_key_separates_scale_and_seed(self):
        base = make_kernel("kmeans", scale=0.05, seed=1)
        base.build_warp_columns(0, 0)
        make_kernel("kmeans", scale=0.05, seed=2).build_warp_columns(0, 0)
        make_kernel("kmeans", scale=0.1, seed=1).build_warp_columns(0, 0)
        assert trace_memo_stats()["keys"] == 3

    def test_latency_column_is_bytes(self):
        program = make_kernel("compute", scale=0.05).build_warp_columns(0, 0)
        assert type(program.lat) is bytes

    def test_memo_rows_match_built_rows(self):
        kernel = make_kernel("spmv", scale=0.05)
        total = sum(len(kernel.build_warp_columns(c, w))
                    for c in range(kernel.num_ctas)
                    for w in range(kernel.warps_per_cta))
        stats = trace_memo_stats()
        assert stats["rows"] == total
        assert stats["warps"] == kernel.num_ctas * kernel.warps_per_cta


class TestNeverMemoized:
    def _assert_not_memoized(self, kernel):
        assert kernel.memo_key is None
        first = kernel.build_warp_columns(0, 0)
        second = kernel.build_warp_columns(0, 0)
        assert first is not second
        assert _rows(first) == _rows(second)
        assert trace_memo_stats() == {"keys": 0, "warps": 0, "rows": 0}

    def test_hand_built_kernel(self):
        kernel = Kernel("hand", 2, 1, lambda c, w: [alu(4), load([c]), exit_()])
        self._assert_not_memoized(kernel)

    def test_replay_kernel(self, tmp_path):
        path = tmp_path / "kmeans.json"
        save_kernel_trace(make_kernel("kmeans", scale=0.02), path)
        clear_trace_memo()
        self._assert_not_memoized(load_kernel_trace(path))

    def test_fuzz_kernels(self):
        self._assert_not_memoized(random_kernel(5))
        self._assert_not_memoized(FuzzCase.generate(3).build_kernel())


class TestLongLatencyFallback:
    def test_latency_above_a_byte_runs_through_the_tuple_column(self, tmp_path):
        def builder(cta_id, warp_idx):
            return [alu(300), load([cta_id * 4 + warp_idx]), alu(7), exit_()]

        hand = Kernel("slow-alu", 4, 2, builder)
        path = tmp_path / "slow.json"
        save_kernel_trace(hand, path)
        replay = load_kernel_trace(path)
        columns = replay.build_warp_columns(0, 0)
        assert type(columns.lat) is tuple
        assert _rows(columns) == _rows(program_columns(builder(0, 0)))
        results = [simulate(load_kernel_trace(path), config=SMALL,
                            backend=backend).to_dict()
                   for backend in ("object", "vector")]
        diffs = diff_paths(*(canonical_result(r) for r in results))
        assert not diffs, diffs[:3]
        assert results[1]["cycles"] > 300


class TestBudget:
    def _fill(self, kernel):
        for cta_id in range(kernel.num_ctas):
            for warp_idx in range(kernel.warps_per_cta):
                kernel.build_warp_columns(cta_id, warp_idx)

    def _rows(self, kernel):
        return sum(len(kernel.build_warp_columns(c, w))
                   for c in range(kernel.num_ctas)
                   for w in range(kernel.warps_per_cta))

    def test_lru_evicts_least_recently_used_kernel(self, monkeypatch):
        kernels = [make_kernel("kmeans", scale=0.02, seed=seed)
                   for seed in (1, 2, 3)]
        rows = [self._rows(k) for k in kernels]
        clear_trace_memo()
        # Room for two of the three kernels.
        monkeypatch.setattr(kernel_mod, "TRACE_MEMO_ROWS",
                            rows[0] + rows[1] + rows[2] // 2)
        self._fill(kernels[0])
        self._fill(kernels[1])
        kernels[0].build_warp_columns(0, 0)      # seed 1 is now the newest
        self._fill(kernels[2])
        memo_keys = list(kernel_mod._MEMO)
        assert memo_keys == [kernels[0].memo_key, kernels[2].memo_key]
        assert trace_memo_stats()["rows"] == rows[0] + rows[2]

    def test_kernel_larger_than_budget_is_skipped(self, monkeypatch):
        kernel = make_kernel("kmeans", scale=0.02)
        rows = self._rows(kernel)
        clear_trace_memo()
        monkeypatch.setattr(kernel_mod, "TRACE_MEMO_ROWS", rows - 1)
        self._fill(kernel)
        assert trace_memo_stats()["rows"] == 0
        first = kernel.build_warp_columns(0, 0)
        assert kernel.build_warp_columns(0, 0) is not first

    def test_kernel_outgrowing_its_estimate_is_given_up(self, monkeypatch):
        # The first warp is short, so the admission estimate passes; the
        # kernel is dropped, for good, once its real rows pass the budget.
        def builder(cta_id, warp_idx):
            return [alu(1)] * (1 if cta_id == 0 else 50) + [exit_()]

        kernel = Kernel("uneven", 8, 1, builder)
        kernel.memo_key = ("uneven",)
        monkeypatch.setattr(kernel_mod, "TRACE_MEMO_ROWS", 100)
        self._fill(kernel)
        assert trace_memo_stats() == {"keys": 1, "warps": 0, "rows": 0}
        first = kernel.build_warp_columns(0, 0)
        assert kernel.build_warp_columns(0, 0) is not first

    def test_key_cap_bounds_the_entries(self, monkeypatch):
        monkeypatch.setattr(kernel_mod, "TRACE_MEMO_KEYS", 2)
        for seed in (1, 2, 3):
            make_kernel("compute", scale=0.02, seed=seed).build_warp_columns(0, 0)
        assert [key[2] for key in kernel_mod._MEMO] == [2, 3]


class TestWarmRuns:
    @pytest.mark.parametrize("name", ["kmeans", "spmv", "stencil"])
    def test_cold_then_warm_run_is_bitwise_identical(self, name):
        job = SimJob(names=(name,), scale=0.05, policy=("lcs",), config=SMALL,
                     backend="vector")
        cold = job.execute().to_dict()
        assert trace_memo_stats()["keys"] == 1
        warm = job.execute().to_dict()
        diffs = diff_paths(canonical_result(cold), canonical_result(warm))
        assert not diffs, diffs[:3]
        obj = replace(job, backend="object").execute().to_dict()
        assert not diff_paths(canonical_result(cold), canonical_result(obj))

    def test_concurrent_builds_agree(self):
        # Column builds (memoized, from several kernel instances) race an
        # Instruction build of the same kernel.  The column build mode is
        # per thread, so no builder sees the other format, and the memo's
        # row count (a read-modify-write under its lock) loses no update.
        kernel = make_kernel("bfs", scale=0.05)
        warps = [(c, w) for c in range(kernel.num_ctas)
                 for w in range(kernel.warps_per_cta)]
        errors = []
        columns = [{} for _ in range(3)]
        programs = {}

        def build_columns(out):
            try:
                for warp in warps:
                    out[warp] = _rows(make_kernel(
                        "bfs", scale=0.05).build_warp_columns(*warp))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def build_programs():
            try:
                for warp in warps:
                    programs[warp] = _instruction_rows(kernel, *warp)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=build_columns, args=(out,))
                   for out in columns]
        threads.append(threading.Thread(target=build_programs))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(out == programs for out in columns)
        stats = trace_memo_stats()
        assert stats["warps"] == len(warps)
        assert stats["rows"] == sum(len(rows) for rows in programs.values())

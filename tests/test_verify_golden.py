"""Golden-result store tests: digests, drift lanes, the verify gate."""

import json

import pytest

from repro.harness.jobs import SimJob
from repro.sim.config import GPUConfig
from repro.verify.golden import (DRIFT_LANES, GoldenCell, GoldenError,
                                 GoldenStore, canonical_json,
                                 canonical_result, classify_drift,
                                 diff_paths, golden_matrix, result_digest,
                                 split_lanes, verify_goldens)

SMALL = GPUConfig.small()


def _cell(label="cell-a", scale=0.05, **kwargs):
    return GoldenCell(label, SimJob(names=("kmeans",), scale=scale,
                                    config=SMALL, **kwargs))


# --------------------------------------------------------------------------- #
# canonical JSON + digests
# --------------------------------------------------------------------------- #

class TestCanonicalization:
    def test_canonical_json_is_key_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_digest_stable_under_key_order(self):
        assert (result_digest({"x": 1, "y": 2})
                == result_digest({"y": 2, "x": 1}))

    def test_canonical_result_erases_tuple_list_distinction(self):
        # Goldens live as JSON; a tuple in a live to_dict() must not read
        # as drift against the list that comes back from disk.
        live = {"meta": {"issue_counts": (3, 4)}}
        assert canonical_result(live) == {"meta": {"issue_counts": [3, 4]}}
        assert not diff_paths(canonical_result(live),
                              json.loads(canonical_json(live)))


# --------------------------------------------------------------------------- #
# diff_paths
# --------------------------------------------------------------------------- #

class TestDiffPaths:
    def test_identical_dicts_have_no_diffs(self):
        payload = {"a": 1, "b": {"c": [1, 2]}}
        assert diff_paths(payload, dict(payload)) == []

    def test_leaf_change_is_located_by_path(self):
        diffs = diff_paths({"a": {"b": 1}}, {"a": {"b": 2}})
        assert diffs == [("a.b", 1, 2)]

    def test_missing_key_reported_as_absent(self):
        diffs = diff_paths({"a": 1}, {})
        assert diffs == [("a", 1, "<absent>")]

    def test_list_length_mismatch(self):
        diffs = diff_paths({"xs": [1, 2]}, {"xs": [1]})
        assert any("<len>" in path for path, _, _ in diffs)

    def test_type_change_is_drift(self):
        assert diff_paths({"a": 1}, {"a": 1.0})


# --------------------------------------------------------------------------- #
# lanes
# --------------------------------------------------------------------------- #

class TestLanes:
    def _result(self):
        return {"cycles": 10, "meta": {"timeline": {"cycles": [5, 10]},
                                       "trace": [{"kind": "run.start"}],
                                       "kernels": ["k"]}}

    def test_split_lanes_partitions_meta_riders(self):
        lanes = split_lanes(self._result())
        assert set(lanes) == set(DRIFT_LANES)
        assert "timeline" not in lanes["stats"]["meta"]
        assert "trace" not in lanes["stats"]["meta"]
        assert lanes["timeline"] == {"cycles": [5, 10]}
        assert lanes["telemetry"] == {"trace": [{"kind": "run.start"}]}

    def test_classify_drift_names_only_drifted_lanes(self):
        golden, fresh = self._result(), self._result()
        fresh = json.loads(json.dumps(fresh))
        fresh["meta"]["timeline"] = {"cycles": [5, 11]}
        drift = classify_drift(golden, fresh)
        assert set(drift) == {"timeline"}

    def test_stats_drift_does_not_blame_telemetry(self):
        golden, fresh = self._result(), self._result()
        fresh = json.loads(json.dumps(fresh))
        fresh["cycles"] = 11
        assert set(classify_drift(golden, fresh)) == {"stats"}


# --------------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------------- #

class TestGoldenStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = GoldenStore(tmp_path)
        cell = _cell()
        store.put(cell, {"cycles": 42})
        entry = store.get(cell.label)
        assert entry["result"] == {"cycles": 42}
        assert entry["fingerprint"] == cell.job.fingerprint()

    def test_get_missing_returns_none(self, tmp_path):
        assert GoldenStore(tmp_path).get("nope") is None

    def test_tampered_entry_fails_digest_check(self, tmp_path):
        store = GoldenStore(tmp_path)
        cell = _cell()
        store.put(cell, {"cycles": 42})
        path = store.path_for(cell.label)
        entry = json.loads(path.read_text())
        entry["result"]["cycles"] = 43   # digest now stale
        path.write_text(json.dumps(entry))
        with pytest.raises(GoldenError, match="digest"):
            store.get(cell.label)

    def test_labels_and_clear_strays(self, tmp_path):
        store = GoldenStore(tmp_path)
        store.put(_cell("cell-a"), {"cycles": 1})
        store.put(_cell("cell-b", scale=0.06), {"cycles": 2})
        (tmp_path / ".tmp-abandoned").write_text("partial")
        assert store.labels() == ["cell-a", "cell-b"]
        assert store.clear_strays() == 1
        assert store.labels() == ["cell-a", "cell-b"]

    def test_bad_label_rejected(self):
        with pytest.raises(GoldenError):
            GoldenCell("has space", SimJob(names=("kmeans",), config=SMALL))


# --------------------------------------------------------------------------- #
# the pinned matrix
# --------------------------------------------------------------------------- #

class TestMatrix:
    @pytest.mark.parametrize("tier", ["smoke", "full"])
    def test_labels_unique_and_jobs_valid(self, tier):
        cells = golden_matrix(tier)
        labels = [cell.label for cell in cells]
        assert len(labels) == len(set(labels))
        for cell in cells:
            assert cell.job.fingerprint()   # constructible + hashable

    def test_full_supersets_smoke_in_size(self):
        assert len(golden_matrix("full")) > len(golden_matrix("smoke"))

    def test_unknown_tier_rejected(self):
        with pytest.raises(GoldenError):
            golden_matrix("nightly-ultra")


# --------------------------------------------------------------------------- #
# the gate
# --------------------------------------------------------------------------- #

class TestVerifyGoldens:
    CELLS = [_cell("gate-a", scale=0.05), _cell("gate-b", scale=0.06)]

    def test_update_then_verify_is_clean(self, tmp_path):
        store = GoldenStore(tmp_path)
        update = verify_goldens(self.CELLS, store, update=True)
        assert update.ok and update.count("updated") == 2
        check = verify_goldens(self.CELLS, store)
        assert check.ok and check.count("ok") == 2

    def test_missing_golden_fails_the_gate(self, tmp_path):
        report = verify_goldens(self.CELLS, GoldenStore(tmp_path))
        assert not report.ok
        assert report.count("missing") == 2

    def test_tampered_value_reports_drift_with_lane_and_path(self, tmp_path):
        store = GoldenStore(tmp_path)
        verify_goldens(self.CELLS, store, update=True)
        cell = self.CELLS[0]
        entry = json.loads(store.path_for(cell.label).read_text())
        entry["result"]["cycles"] += 1
        entry["digest"] = result_digest(entry["result"])
        store.path_for(cell.label).write_text(json.dumps(entry))

        report = verify_goldens(self.CELLS, store)
        assert not report.ok
        [verdict] = report.failures()
        assert verdict.label == cell.label
        assert verdict.status == "drift"
        assert verdict.lanes == ["stats"]
        assert any(path == "cycles" for path, _, _ in
                   verdict.diffs["stats"])
        record = verdict.to_record()
        assert record["kind"] == "golden"
        assert record["diffs"]["stats"][0]["path"] == "cycles"

    def test_update_refuses_changed_results_under_same_fingerprint(
            self, tmp_path):
        # A stored golden whose result differs from a fresh run of the
        # same fingerprint means results moved without a SIM_VERSION
        # bump: re-baselining would leave the result cache stale.
        store = GoldenStore(tmp_path)
        verify_goldens(self.CELLS, store, update=True)
        cell = self.CELLS[0]
        path = store.path_for(cell.label)
        entry = json.loads(path.read_text())
        entry["result"]["cycles"] += 1
        entry["digest"] = result_digest(entry["result"])
        tampered = json.dumps(entry)
        path.write_text(tampered)

        report = verify_goldens(self.CELLS, store, update=True)
        assert not report.ok
        [verdict] = report.failures()
        assert verdict.label == cell.label
        assert verdict.status == "error"
        assert "without a SIM_VERSION bump" in verdict.error
        assert verdict.lanes == ["stats"]
        assert report.count("updated") == 1
        assert path.read_text() == tampered   # not overwritten

    def test_update_rewrites_unreadable_and_stale_goldens(self, tmp_path):
        store = GoldenStore(tmp_path)
        verify_goldens(self.CELLS, store, update=True)
        store.path_for("gate-a").write_text("{not json")
        moved = [self.CELLS[0], _cell("gate-b", scale=0.07)]
        report = verify_goldens(moved, store, update=True)
        assert report.ok and report.count("updated") == 2
        assert verify_goldens(moved, store).count("ok") == 2

    def test_stale_fingerprint_detected(self, tmp_path):
        store = GoldenStore(tmp_path)
        verify_goldens(self.CELLS, store, update=True)
        # Same labels, different job description -> stored fingerprint is
        # for a job the matrix no longer describes.
        moved = [_cell("gate-a", scale=0.07), _cell("gate-b", scale=0.08)]
        report = verify_goldens(moved, store)
        assert not report.ok
        assert report.count("stale") == 2

    def test_duplicate_labels_rejected(self, tmp_path):
        with pytest.raises(GoldenError, match="duplicate"):
            verify_goldens([_cell("dup"), _cell("dup", scale=0.06)],
                           GoldenStore(tmp_path))

    def test_summary_line_counts(self, tmp_path):
        store = GoldenStore(tmp_path)
        verify_goldens(self.CELLS, store, update=True)
        line = verify_goldens(self.CELLS, store).summary_line()
        assert "2 cell(s)" in line and "2 ok" in line

"""Unit tests for the JSONL sink, determinism audit, and aggregation."""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess

import pytest

from repro.sweep import (
    SweepSpec,
    append_record,
    audit_determinism,
    completed_ok_ids,
    load_records,
    point_key,
    summarize,
    write_summary,
)
from repro.sweep.aggregate import append_entry, git_commit


REPO_BENCH_MICRO = pathlib.Path(__file__).resolve().parent.parent / "BENCH_micro.json"


def record(run_id, status="ok", fingerprint="f0", shard=0, params=None, metrics=None,
           audit=False, spec_hash="h"):
    return {
        "schema": 1, "kind": "run", "run_id": run_id, "spec_hash": spec_hash,
        "name": "t", "workload": "storm", "point": 0, "replicate": 0,
        "audit": audit, "seed": 1, "params": params or {"side": 4},
        "shard": shard, "attempt": 1, "status": status,
        "error": None if status == "ok" else "boom",
        "elapsed_s": 0.1, "metrics": metrics or {"wall_s": 0.1},
        "fingerprint": fingerprint if status == "ok" else None,
    }


class TestSink:
    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        for i in range(3):
            append_record(path, record(f"h/p{i:04d}/r0"))
        loaded = load_records(path)
        assert [r["run_id"] for r in loaded] == [f"h/p{i:04d}/r0" for i in range(3)]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_records(str(tmp_path / "nope.jsonl")) == []

    def test_torn_tail_skipped_and_next_append_survives(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        append_record(path, record("h/p0000/r0"))
        with open(path, "a") as fh:
            fh.write('{"run_id": "h/p0001/r0", "status": "o')  # killed mid-write
        assert [r["run_id"] for r in load_records(path)] == ["h/p0000/r0"]
        append_record(path, record("h/p0002/r0"))
        loaded = load_records(path)
        assert [r["run_id"] for r in loaded] == ["h/p0000/r0", "h/p0002/r0"]

    def test_completed_ok_ids_filters_status_and_spec(self):
        records = [
            record("h/p0000/r0"),
            record("h/p0001/r0", status="failed"),
            record("x/p0000/r0", spec_hash="other"),
        ]
        assert completed_ok_ids(records) == {"h/p0000/r0", "x/p0000/r0"}
        assert completed_ok_ids(records, spec_hash="h") == {"h/p0000/r0"}


class TestAudit:
    def test_matching_pairs_pass(self):
        report = audit_determinism([
            record("h/p0000/r0", fingerprint="aa", shard=0),
            record("h/p0000/r0#audit", fingerprint="aa", shard=1, audit=True),
        ])
        assert report.pairs_checked == 1
        assert report.ok

    def test_mismatch_is_reported_with_both_shards(self):
        report = audit_determinism([
            record("h/p0000/r0", fingerprint="aa", shard=0),
            record("h/p0000/r0#audit", fingerprint="bb", shard=1, audit=True),
        ])
        assert not report.ok
        mismatch = report.mismatches[0]
        assert mismatch["run_id"] == "h/p0000/r0"
        assert (mismatch["primary_shard"], mismatch["audit_shard"]) == (0, 1)

    def test_failed_sides_are_not_counted(self):
        report = audit_determinism([
            record("h/p0000/r0", status="failed"),
            record("h/p0000/r0#audit", fingerprint="aa", audit=True),
        ])
        assert report.pairs_checked == 0
        assert report.ok


class TestAggregate:
    def test_point_key_is_sorted_and_canonical(self):
        assert point_key({"side": 4, "loss": 0.1}) == "loss=0.1,side=4"

    def test_summarize_groups_and_excludes_audits(self):
        records = [
            record("h/p0000/r0", params={"side": 4}, metrics={"wall_s": 1.0}),
            record("h/p0000/r1", params={"side": 4}, metrics={"wall_s": 3.0},
                   fingerprint="f1"),
            record("h/p0000/r0#audit", params={"side": 4}, audit=True),
            record("h/p0001/r0", params={"side": 8}, status="failed"),
        ]
        summary = summarize(records)
        side4 = summary["side=4"]
        assert side4["runs"] == 2
        assert side4["failed"] == 0
        assert side4["distinct_fingerprints"] == 2
        assert side4["metrics"]["wall_s"] == {"mean": 2.0, "min": 1.0, "max": 3.0}
        assert summary["side=8"] == {
            "runs": 0, "failed": 1, "distinct_fingerprints": 0, "metrics": {},
        }

    def test_write_summary_appends_schema2_trajectory(self, tmp_path):
        spec = SweepSpec(name="t", workload="storm", grid={"side": [4]})
        path = str(tmp_path / "SWEEP_t.json")
        doc = write_summary(path, [record("h/p0000/r0")], spec)
        assert doc["bench"] == "sweep:t"
        assert doc["schema"] == 2
        assert len(doc["runs"]) == 1
        entry = doc["runs"][0]
        assert set(entry) >= {"commit", "date", "spec_hash", "workloads"}
        # same-commit rerun replaces, never duplicates
        doc2 = write_summary(path, [record("h/p0000/r0")], spec)
        assert len(doc2["runs"]) == 1
        on_disk = json.loads((tmp_path / "SWEEP_t.json").read_text())
        assert on_disk == doc2

    def test_write_summary_refuses_another_benchs_document(self, tmp_path):
        """A sweep summary pointed at a bench trajectory must not replace it."""
        path = tmp_path / "BENCH_micro.json"
        shutil.copy(REPO_BENCH_MICRO, path)
        before = path.read_text()
        spec = SweepSpec(name="t", workload="storm", grid={"side": [4]})
        with pytest.raises(ValueError, match="holds bench 'micro', not 'sweep:t'"):
            write_summary(str(path), [record("h/p0000/r0")], spec)
        assert path.read_text() == before
        # the real multi-entry trajectory (8 entries when this test was
        # written; every recorded commit adds one)
        assert len(json.loads(before)["runs"]) >= 8

    def test_write_summary_refuses_malformed_json(self, tmp_path):
        path = tmp_path / "SWEEP_t.json"
        path.write_text('{"bench": "sweep:t", "runs": [')
        spec = SweepSpec(name="t", workload="storm", grid={"side": [4]})
        with pytest.raises(ValueError, match="not valid JSON"):
            write_summary(str(path), [record("h/p0000/r0")], spec)
        assert path.read_text() == '{"bench": "sweep:t", "runs": ['

    def test_git_commit_marks_uncommitted_changes_dirty(self, tmp_path, monkeypatch):
        def git(*args):
            return subprocess.run(
                ["git", *args], cwd=tmp_path, capture_output=True, text=True,
                check=True,
            ).stdout.strip()

        git("init", "-q")
        (tmp_path / "f.txt").write_text("a")
        git("add", "f.txt")
        git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "c")
        head = git("rev-parse", "--short", "HEAD")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "untracked.txt").write_text("x")
        assert git_commit() == head
        (tmp_path / "f.txt").write_text("b")
        assert git_commit() == f"{head}-dirty"

    def test_append_entry_keeps_other_commits_and_replaces_its_own(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        append_entry(path, "x", {"commit": "a", "workloads": {"w": 1}})
        append_entry(path, "x", {"commit": "b", "workloads": {"w": 2}})
        doc = append_entry(path, "x", {"commit": "a", "workloads": {"w": 3}})
        assert [(r["commit"], r["workloads"]["w"]) for r in doc["runs"]] == [
            ("b", 2), ("a", 3),
        ]
        with pytest.raises(ValueError, match="holds bench 'x', not 'y'"):
            append_entry(path, "y", {"commit": "a"})

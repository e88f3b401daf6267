"""The ``repro.bench`` suite as rows over the sweep workload registry.

Every bench kernel is a registered workload, and ``repro.bench.SUITE``
only names a workload and its params per row.  These tests pin the
contract that makes that safe: every row dispatches through the
scheduler, a sharded run of each workload produces the same fingerprints
as the in-process serial run, and a full bench run appends to the
trajectory documents without ever discarding one it cannot read.
"""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.workloads import WORKLOADS

#: name -> params kept tiny so each sharded test stays in the seconds range.
PORTED = {
    "storm": {"side": 4, "n_random": 70, "rounds": 2, "loss": 0.1},
    "timer_storm": {"ops": 3_000},
    "pingpong": {"count": 2_000},
    "engine_event_pump": {"events": 5_000},
    "wire_codec": {"ops": 500},
    "fault_storm": {},
    "scenario_storm": {},
    "partition_storm": {"side": 4, "rounds": 2, "partitions": 2},
    "query_serve": {"side": 4, "storage_level": 1, "n_queries": 4},
    "serve_degraded": {"side": 4, "n_queries": 4},
}

#: workload -> overrides that shrink a suite row's ``--check`` params.
TINY = {
    "storm": {"side": 4, "n_random": 70, "rounds": 2},
    "timer_storm": {"ops": 2_000},
    "pingpong": {"count": 500},
    "engine_event_pump": {"events": 2_000},
    "wire_codec": {"ops": 200},
    "partition_storm": {"side": 4, "rounds": 2},
    "query_serve": {"side": 4, "storage_level": 1, "n_queries": 4},
    "serve_degraded": {"side": 4, "n_queries": 4},
    "e1": {"side": 4},
}


def fingerprints(records):
    return {r["run_id"]: r["fingerprint"] for r in records}


def counters(rows):
    """Suite rows without wall clocks, rates and the granted worker count."""

    def clean(row):
        return {
            k: v for k, v in row.items()
            if not k.endswith("_s") and not k.endswith("_per_s")
            and k not in ("speedup", "workers")
        }

    return {
        name: [clean(r) for r in row] if isinstance(row, list) else clean(row)
        for name, row in rows.items()
    }


@pytest.fixture
def tiny_suite(monkeypatch):
    """Every suite row at its ``--check`` params shrunk by :data:`TINY`,
    at both scales (so a full ``main`` run stays in the seconds range)."""
    suite = {}
    for variant, (workload, _, check) in bench.SUITE.items():
        tiny = {**check, **TINY.get(workload, {})}
        suite[variant] = (workload, tiny, tiny)
    monkeypatch.setattr(bench, "SUITE", suite)
    return suite


class TestPortedWorkloads:
    def test_every_newly_ported_workload_is_covered(self):
        suite_workloads = {workload for workload, _, _ in bench.SUITE.values()}
        assert suite_workloads - {"e1"} <= set(PORTED)

    @pytest.mark.parametrize("name", sorted(PORTED))
    def test_serial_vs_sharded_fingerprints_match(self, name):
        spec = SweepSpec(
            name=f"bench-port-{name}",
            workload=name,
            grid={},
            fixed=PORTED[name],
            replicates=2,
        )
        serial = run_sweep(spec, workers=1)
        assert all(r["status"] == "ok" for r in serial), serial
        sharded = run_sweep(spec, workers=2, timeout_s=180, retries=1)
        assert fingerprints(sharded) == fingerprints(serial)

    def test_timer_storm_legacy_flag_changes_the_work_not_the_result(self):
        fast = WORKLOADS["timer_storm"]({"ops": 2_000}, seed=3)
        legacy = WORKLOADS["timer_storm"]({"ops": 2_000, "legacy_handles": True}, seed=3)
        assert fast.metrics["timer_ops"] == legacy.metrics["timer_ops"]

    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_storm_batch_fanout_flag_changes_the_work_not_the_result(self, jitter):
        params = {"side": 8, "n_random": 400, "rounds": 2, "loss": 0.1, "jitter": jitter}
        fast = WORKLOADS["storm"](params, seed=11).metrics
        legacy = WORKLOADS["storm"]({**params, "batch_fanout": False}, seed=11).metrics
        for key in ("transmissions", "deliveries", "drops"):
            assert fast[key] == legacy[key], key
        assert fast["drops"] > 0

    def test_bench_micro_covers_every_variant(self, tiny_suite):
        """Every bench row must be dispatchable through the sweep
        scheduler -- a new row without a registered workload fails here."""
        serial = bench.run_suite(smoke=True)
        assert list(serial) == list(tiny_suite)
        assert all(isinstance(serial[v], list) for v in tiny_suite if tiny_suite[v][0] == "e1")


class TestRunMicroWorkers:
    def test_parallel_run_micro_matches_serial_fingerprints(self, tiny_suite):
        serial = bench.run_suite(smoke=True)
        sharded = bench.run_suite(smoke=True, workers=2)
        assert counters(sharded) == counters(serial)


class TestSuite:
    def test_every_row_names_a_registered_workload(self):
        for variant, (workload, full, check) in bench.SUITE.items():
            assert workload in WORKLOADS, variant
            assert set(full) == set(check), variant

    def test_full_run_appends_one_entry_per_trajectory(self, tiny_suite, tmp_path, capsys):
        bench.main(["--out-dir", str(tmp_path)])
        for name in ("micro", "e1"):
            doc = json.loads((tmp_path / f"BENCH_{name}.json").read_text())
            assert doc["bench"] == name and doc["schema"] == 2
            (entry,) = doc["runs"]
            assert "determinism" not in entry
        micro = json.loads((tmp_path / "BENCH_micro.json").read_text())["runs"][0]
        assert set(micro["workloads"]) == {
            v for v, (workload, _, _) in tiny_suite.items() if workload != "e1"
        }
        assert "timer_speedup_vs_legacy_handles" in micro["gates"]

    def test_full_run_refuses_to_overwrite_a_malformed_trajectory(self, tiny_suite, tmp_path):
        path = tmp_path / "BENCH_micro.json"
        path.write_text('{"bench": "micro", "schema": 2, "runs": [')
        with pytest.raises(ValueError, match="not valid JSON"):
            bench.main(["--out-dir", str(tmp_path)])
        assert path.read_text() == '{"bench": "micro", "schema": 2, "runs": ['

"""Perf-regression harness for the simulation stack.

The suite is a table of rows over :mod:`repro.sweep.workloads` — the
medium/engine/timer/serve diagnostics and the E1 deployed-scaling
benchmark — dispatched through :func:`repro.sweep.run_sweep` at one pinned
seed.  A full run appends one entry per commit to the ``BENCH_micro.json``
/ ``BENCH_e1.json`` trajectory artifacts, with the measured speedup ratios
as the entry's ``gates``, and then exits with the verdict of
:mod:`repro.analyze.regression` over the artifacts it wrote.

Usage::

    python -m repro.bench                  # full run, appends to BENCH_*.json
    python -m repro.bench --check          # reduced suite, writes nothing
    python -m repro.bench --workers 4      # shard the suite on 4 processes

(``python -m repro bench`` forwards to the same entry point, flags
included; ``python -m cProfile -m repro.bench`` profiles a run.)

The determinism contracts the optimized paths must keep (batched vs
per-receiver fan-out, same-seed replays, K-shard == whole-world) are
pinned by the tier-1 tests, not here.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .sweep import SweepSpec, run_sweep
from .sweep.aggregate import append_entry, git_commit

#: Pinned seed of every suite row (the historical trajectory seed).
SUITE_SEED = 11

_STORM = {"side": 8, "n_random": 400, "loss": 0.1}
_JITTERED = {**_STORM, "jitter": 0.3}
_LEGACY = {"batch_fanout": False}

#: variant -> (workload, params at full scale, params at ``--check`` scale).
#: A list-valued param is a grid axis: the row records one entry per value.
SUITE: Dict[str, Tuple[str, Dict[str, Any], Dict[str, Any]]] = {
    "medium_broadcast_storm": ("storm", {**_STORM, "rounds": 40}, {**_STORM, "rounds": 8}),
    "medium_broadcast_storm_legacy_fanout": (
        "storm", {**_STORM, **_LEGACY, "rounds": 40}, {**_STORM, **_LEGACY, "rounds": 8}
    ),
    "lossy_jittered_storm": ("storm", {**_JITTERED, "rounds": 20}, {**_JITTERED, "rounds": 4}),
    "lossy_jittered_storm_legacy_fanout": (
        "storm", {**_JITTERED, **_LEGACY, "rounds": 20}, {**_JITTERED, **_LEGACY, "rounds": 4}
    ),
    "timer_storm": ("timer_storm", {"ops": 100_000}, {"ops": 20_000}),
    "timer_storm_legacy_handles": (
        "timer_storm",
        {"ops": 100_000, "legacy_handles": True},
        {"ops": 20_000, "legacy_handles": True},
    ),
    "unicast_pingpong": ("pingpong", {"count": 20_000}, {"count": 4_000}),
    "engine_event_pump": ("engine_event_pump", {"events": 200_000}, {"events": 40_000}),
    "wire_codec": ("wire_codec", {"ops": 50_000}, {"ops": 10_000}),
    "fault_storm": ("fault_storm", {}, {}),
    "scenario_storm": ("scenario_storm", {}, {}),
    "partition_storm": (
        "partition_storm",
        {"side": 32, "rounds": 6, "partitions": 4},
        {"side": 8, "rounds": 3, "partitions": 2},
    ),
    "query_serve": (
        "query_serve", {"side": 16, "storage_level": 2}, {"side": 8, "storage_level": 2}
    ),
    "serve_degraded": ("serve_degraded", {}, {}),
    "e1_deployed_scaling": ("e1", {"side": [4, 8, 16]}, {"side": [4, 8]}),
    "e1_partitioned": (
        "e1", {"side": 32, "partitions": [1, 4]}, {"side": 8, "partitions": [1, 2]}
    ),
}


def _row_from_metrics(metrics: Dict[str, float]) -> Dict[str, Any]:
    """Undo the float-cast the sweep metrics layer applies to counters."""
    return {
        k: int(v)
        if isinstance(v, float) and v.is_integer()
        and not k.endswith("_s") and not k.endswith("_per_s")
        else v
        for k, v in metrics.items()
    }


def _e1_row(record: Dict[str, Any]) -> Dict[str, Any]:
    """The recorded shape of one E1 grid point (``partitions`` rows also
    carry the fingerprint and the granted worker count)."""
    metrics = _row_from_metrics(record["metrics"])
    partitions = record["params"].get("partitions")
    row: Dict[str, Any] = {"side": metrics["side"]}
    if partitions is not None:
        row["partitions"] = int(partitions)
    for key in ("n_nodes", "wall_s", "transmissions", "tx_per_s"):
        row[key] = metrics[key]
    if partitions is not None:
        row["fingerprint"] = record["fingerprint"]
        if "partition_procs" in metrics:
            row["partition_procs"] = metrics["partition_procs"]
    return row


def run_suite(smoke: bool = False, workers: int = 1) -> Dict[str, Any]:
    """Run every :data:`SUITE` row; returns variant -> row (or rows).

    Rows with a ``partitions`` param start their own shard processes, so
    they run in this process (``workers=1``) where the pool gets the
    machine's cores; the rest share ``workers`` sweep shards.  Raises if
    any run failed, or if a ``partitions`` grid changed the fingerprint.
    """
    specs: Dict[str, SweepSpec] = {}
    pooled: List[SweepSpec] = []
    in_process: List[SweepSpec] = []
    for variant, (workload, full, check) in SUITE.items():
        params = check if smoke else full
        spec = specs[variant] = SweepSpec(
            name=variant,
            workload=workload,
            grid={k: v for k, v in params.items() if isinstance(v, list)},
            fixed={"seed": SUITE_SEED,
                   **{k: v for k, v in params.items() if not isinstance(v, list)}},
        )
        (in_process if "partitions" in params else pooled).append(spec)
    records = run_sweep(pooled, workers=workers) + run_sweep(in_process, workers=1)
    failures = [r for r in records if r["status"] != "ok"]
    if failures:
        raise RuntimeError(
            "bench suite runs failed: "
            + "; ".join(f"{r['name']}: {r['error']}" for r in failures)
        )
    by_variant: Dict[str, List[Dict[str, Any]]] = {}
    for record in sorted(records, key=lambda r: r["point"]):
        by_variant.setdefault(record["name"], []).append(record)
    rows: Dict[str, Any] = {}
    for variant, spec in specs.items():
        group = by_variant[variant]
        if "partitions" in spec.grid and len({r["fingerprint"] for r in group}) > 1:
            raise RuntimeError(
                f"{variant}: fingerprints diverged across partitions: "
                + ", ".join(f"K={r['params']['partitions']} {r['fingerprint']}" for r in group)
            )
        if spec.workload == "e1":
            rows[variant] = [_e1_row(r) for r in group]
        else:
            rows[variant] = _row_from_metrics(group[0]["metrics"])
    return rows


def _gate(micro: Dict[str, Any]) -> Dict[str, Any]:
    """The speedup ratios recorded as the run entry's ``gates``.

    Recorded only: :data:`repro.analyze.regression.RATIO_TARGETS` holds
    each ratio to its target.  The partitioned storm's target applies
    only when the machine actually granted the requested worker
    processes (``partition_gate_enforced``): with fewer granted workers
    or cores than shards the speedup is recorded but cannot honestly be
    gated.
    """
    timer_speedup = (
        micro["timer_storm"]["timer_ops_per_s"]
        / micro["timer_storm_legacy_handles"]["timer_ops_per_s"]
    )
    batch_speedup = (
        micro["lossy_jittered_storm"]["deliveries_per_s"]
        / micro["lossy_jittered_storm_legacy_fanout"]["deliveries_per_s"]
    )
    serve = micro["query_serve"]
    serve_energy_speedup = (
        serve["cold_energy"] / serve["warm_energy"]
        if serve["warm_energy"] > 0 else float("inf")
    )
    serve_wall_speedup = (
        serve["cold_wall_s"] / serve["warm_wall_s"]
        if serve["warm_wall_s"] > 0 else float("inf")
    )
    degraded = micro["serve_degraded"]
    degraded_energy_speedup = (
        degraded["cold_energy"] / degraded["recovered_energy"]
        if degraded["recovered_energy"] > 0 else float("inf")
    )
    partition = micro["partition_storm"]
    partition_enforced = (
        int(partition["workers"]) >= int(partition["partitions"])
        and (os.cpu_count() or 1) >= int(partition["partitions"])
    )
    return {
        "timer_speedup_vs_legacy_handles": timer_speedup,
        "lossy_jittered_speedup_vs_legacy_fanout": batch_speedup,
        "serve_cache_energy_speedup": serve_energy_speedup,
        "serve_cache_wall_speedup": serve_wall_speedup,
        "serve_degraded_energy_speedup": degraded_energy_speedup,
        "serve_degraded_complete": degraded["recovered_complete"]
        == degraded["queries"] / 3,
        "serve_degraded_failovers": degraded["failovers"],
        "partition_speedup_vs_serial": partition["speedup"],
        "partition_workers": int(partition["workers"]),
        "partition_gate_enforced": partition_enforced,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--check", action="store_true",
        help="smoke mode: the reduced suite, no artifacts written",
    )
    parser.add_argument(
        "--out-dir", default=".", help="directory for BENCH_*.json artifacts"
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard the suite on N repro.sweep worker processes "
        "(default 1 = serial in-process)",
    )
    args = parser.parse_args(argv)

    rows = run_suite(smoke=args.check, workers=args.workers)
    for name, row in rows.items():
        for r in row if isinstance(row, list) else [row]:
            axes = "".join(f" {k}={r[k]}" for k in ("side", "partitions")
                           if isinstance(row, list) and k in r)
            rates = {k: v for k, v in r.items() if k.endswith("_per_s")}
            print(f"{name}{axes}: wall={r['wall_s']:.3f}s {rates}")
    e1 = {k: v for k, v in rows.items() if SUITE[k][0] == "e1"}
    micro = {k: v for k, v in rows.items() if k not in e1}

    gates = _gate(micro)
    print(f"timer wheel vs legacy handles: "
          f"{gates['timer_speedup_vs_legacy_handles']:.2f}x")
    print(f"batched loss+jitter vs legacy fanout: "
          f"{gates['lossy_jittered_speedup_vs_legacy_fanout']:.2f}x")
    print(f"serve warm cache vs cold: "
          f"{gates['serve_cache_energy_speedup']:.1f}x energy, "
          f"{gates['serve_cache_wall_speedup']:.1f}x wall")
    print(f"serve degraded (post-failover) vs cold: "
          f"{gates['serve_degraded_energy_speedup']:.1f}x energy, "
          f"complete={gates['serve_degraded_complete']}, "
          f"failovers={gates['serve_degraded_failovers']:.0f}")
    print(f"partitioned storm vs serial: "
          f"{gates['partition_speedup_vs_serial']:.2f}x on "
          f"{gates['partition_workers']} workers "
          f"({'gated' if gates['partition_gate_enforced'] else 'recorded only'})")

    # smoke workloads are too short for stable ratios: nothing is recorded
    if args.check:
        print("smoke mode: artifacts not written")
        return 0

    commit = git_commit()
    today = datetime.date.today().isoformat()
    entries = (
        ("micro", {"commit": commit, "date": today, "workloads": micro, "gates": gates}),
        ("e1", {"commit": commit, "date": today, "workloads": e1}),
    )
    for bench, entry in entries:
        path = f"{args.out_dir}/BENCH_{bench}.json"
        append_entry(path, bench, entry)
        print(f"wrote {path}")

    from .analyze.ingest import ingest_trajectory
    from .analyze.regression import analyze_trajectories
    from .analyze.tables import regression_table

    docs = [
        ingest_trajectory(f"{args.out_dir}/BENCH_{bench}.json", expect_bench=bench)
        for bench, _ in entries
    ]
    report = analyze_trajectories([(doc.bench, doc.runs) for doc in docs])
    print(regression_table(report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())

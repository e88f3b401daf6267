"""Command-line entry point.

``python -m repro [side] [threshold]`` runs the complete methodology
pipeline on a small topographic-query instance and prints every stage —
a smoke test that doubles as the thirty-second tour of the library.

``python -m repro sweep ...`` dispatches to the sharded experiment-sweep
orchestrator (see :mod:`repro.sweep.cli` for flags).

``python -m repro serve`` brings up a persistent query engine over a
small deployment and serves a synthesized arrival stream, printing the
per-round cache/radio accounting.

``python -m repro partition`` runs one seeded broadcast storm serially
and space-partitioned (DESIGN.md §12) and prints the matching
fingerprints plus the wall-clock split.

``python -m repro scenario`` runs one seeded round under the full
scenario composition (log-normal shadowing, mobility, pursuit adversary,
duty-cycled sources; DESIGN.md §14) serially and space-partitioned,
printing the matching fingerprints and the scenario report.

``python -m repro bench ...`` forwards to the perf-regression harness
(:mod:`repro.bench`), flags included — ``--check``, ``--workers N``,
``--out-dir``.

``python -m repro analyze ...`` runs the campaign-analytics pipeline
(:mod:`repro.analyze`): memoized aggregation of sweep JSONL sinks with
confidence intervals (``--sink``/``--by``), plus trajectory regression
detection over the committed ``BENCH_*.json`` artifacts, writing
``ANALYZE_report.json`` (the CI ``analyze`` job).

The acceptance checks of every subsystem run in the pytest suite:
``PYTHONPATH=src python -m pytest -q``.
"""

from __future__ import annotations

import sys

from .apps import (
    GaussianBlobField,
    TopographicQueryApp,
    render_energy_map,
    render_label_map,
)
from .core import VirtualArchitecture
from .core.analysis import estimate_quadtree, quadtree_step_count


def _serve_demo(args: list[str]) -> int:
    """``python -m repro serve [side] [n_queries]``."""
    from .core import CountAggregation
    from .deployment import covered_network
    from .runtime import deploy
    from .serve import QueryEngine, ServeConfig, synthesize_arrivals

    side = int(args[0]) if args else 4
    n_queries = int(args[1]) if len(args) > 1 else 12
    net = covered_network(side, side * side * 9, seed=7)
    stack = deploy(net)
    va = VirtualArchitecture(side)
    gather = stack.run_application(
        va.synthesize(CountAggregation(lambda c: True), max_level=1)
    )
    engine = QueryEngine(
        stack, storage=dict(gather.exfiltrated), config=ServeConfig()
    )
    print(f"deployed stack       : {side}x{side} cells, {len(net)} nodes, "
          f"{len(gather.exfiltrated)} storage leaders")
    arrivals = synthesize_arrivals(
        sorted(stack.binding.leaders), n_queries, seed=5, tenants=3
    )
    report = engine.serve(arrivals, round_interval=2.0, reduce_fn=sum)
    for i, batch in enumerate(report.batches):
        hits = sum(o.cache_hits for o in batch.outcomes)
        print(
            f"round {i}: {len(batch.outcomes)} queries admitted at "
            f"t={batch.admitted_at:.1f}, {batch.transmissions} tx, "
            f"{hits} cache hits, energy {batch.energy:.1f}"
        )
    counts = report.outcome_counts()
    print(
        f"served {report.queries} queries "
        f"({report.complete_queries} complete) over "
        f"{len(report.batches)} rounds: cache hit rate "
        f"{report.cache_hit_rate:.2f}, {report.transmissions} tx, "
        f"energy {report.energy:.1f}"
    )
    print("outcomes             : "
          + ", ".join(f"{name}={counts[name]}" for name in sorted(counts)))
    print(f"engine fingerprint   : {engine.fingerprint()}")
    return 0 if report.complete_queries == report.queries else 1


def _partition_demo(args: list[str]) -> int:
    """``python -m repro partition [side] [K]``."""
    import time

    import numpy as np

    from .deployment import covered_network
    from .partition import effective_procs, run_partitioned_storm

    positional = [a for a in args if not a.startswith("-")]
    side = int(positional[0]) if positional else 16
    partitions = int(positional[1]) if len(positional) > 1 else 4
    seed = 11
    net = covered_network(side, side * side * 6, seed)
    budget = effective_procs(partitions)
    print(f"deployment           : {side}x{side} cells, {len(net)} nodes")
    print(f"partitions           : {partitions} shards on {budget.procs} "
          f"worker processes (cpu budget {budget.cpu_budget})")
    t0 = time.perf_counter()
    serial = run_partitioned_storm(
        net, rounds=4, partitions=1, rng=np.random.default_rng(seed)
    )
    serial_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_partitioned_storm(
        net, rounds=4, partitions=partitions, procs=budget.procs,
        rng=np.random.default_rng(seed),
    )
    parallel_wall = time.perf_counter() - t0
    print(f"serial               : {serial.deliveries} deliveries, "
          f"{serial.events_processed} events, {serial_wall:.2f}s, "
          f"fingerprint {serial.fingerprint}")
    print(f"partitioned (K={partitions})    : {parallel.deliveries} deliveries, "
          f"{parallel.events_processed} events, {parallel.windows} windows, "
          f"{parallel_wall:.2f}s, fingerprint {parallel.fingerprint}")
    match = parallel.fingerprint == serial.fingerprint
    print(f"serial == partitioned: {'MATCH' if match else 'MISMATCH'} "
          f"({serial_wall / parallel_wall:.2f}x)")
    return 0 if match else 1


def _scenario_demo(args: list[str]) -> int:
    """``python -m repro scenario``."""
    from .runtime.faults import FaultEvent, FaultPlan
    from .scenario import demo_round, demo_scenario

    scn = demo_scenario()
    plan = FaultPlan(events=(FaultEvent(time=0.7, action="kill_leader", cell=(1, 1)),))
    print(f"scenario             : {scn.link.kind} + "
          f"{len(scn.mobility.moves)} moves + attacker at "
          f"{scn.attacker.start_cell} + {len(scn.sources.cells)} sources")
    print(f"scenario fingerprint : {scn.fingerprint()}")
    serial = demo_round(scn, plan=plan)
    partitioned = demo_round(scn, partitions=4, plan=plan)
    rep = serial.scenario_report
    print(f"serial run           : {serial.transmissions} tx, "
          f"{serial.events_processed} events, "
          f"fingerprint {serial.fingerprint()}")
    print(f"partitioned (K=4)    : {partitioned.transmissions} tx, "
          f"{partitioned.events_processed} events, "
          f"fingerprint {partitioned.fingerprint()}")
    print(f"scenario report      : {len(rep.relocations)} relocations, "
          f"{rep.link_faded} frames faded, "
          f"{rep.source_emissions} source emissions")
    atk = rep.attacker
    outcome = (
        f"captured at t={atk.capture_time:.2f}" if atk.captured
        else f"evaded (distance {atk.distance:.1f})"
    )
    print(f"pursuit adversary    : {atk.moves} moves, {outcome}")
    match = partitioned.fingerprint() == serial.fingerprint()
    print(f"serial == partitioned: {'MATCH' if match else 'MISMATCH'}")
    return 0 if match else 1


def main(argv: list[str] | None = None) -> int:
    """Run the demo; returns a process exit code."""
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] == "sweep":
        from .sweep.cli import main as sweep_main

        return sweep_main(args[1:])
    if args and args[0] == "serve":
        return _serve_demo(args[1:])
    if args and args[0] == "partition":
        return _partition_demo(args[1:])
    if args and args[0] == "scenario":
        return _scenario_demo(args[1:])
    if args and args[0] == "bench":
        from .bench import main as bench_main

        return bench_main(args[1:])
    if args and args[0] == "analyze":
        from .analyze.cli import main as analyze_main

        return analyze_main(args[1:])
    side = int(args[0]) if args else 16
    threshold = float(args[1]) if len(args) > 1 else 0.5
    # side <= 0 must not slip through: 0 & -1 == 0 passes the bit trick
    if side <= 0 or side & (side - 1):
        print(f"side must be a positive power of two, got {side}", file=sys.stderr)
        return 2

    va = VirtualArchitecture(side)
    field = GaussianBlobField(
        [(0.28, 0.32, 0.11, 1.0), (0.72, 0.66, 0.08, 0.9)]
    )
    app = TopographicQueryApp(va, field, threshold)

    print(f"virtual architecture : {va}")
    est = estimate_quadtree(side)
    print(
        f"analytic estimate    : {quadtree_step_count(side)} hop-steps, "
        f"{est.total_energy:.0f} energy (unit messages)"
    )
    report = app.run_virtual()
    print(
        f"one round measured   : latency {report.performance.latency:.1f}, "
        f"energy {report.performance.total_energy:.1f}, "
        f"{report.performance.messages} messages"
    )
    print(
        f"result               : {report.regions} regions "
        f"(oracle {report.expected_regions}; "
        f"{'MATCH' if report.correct else 'MISMATCH'})"
    )
    print("\nlabeled regions:")
    print(render_label_map(app.feature_matrix))
    result = va.execute(app.aggregation, charge_compute=False)
    print("\nper-node energy heat map (hot NW spine under the paper's mapping):")
    print(render_energy_map(result.ledger.per_node(), side))
    return 0 if report.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

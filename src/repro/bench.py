"""Perf-regression harness for the simulation stack.

Runs the medium/engine/timer micro-benchmarks and the E1 deployed-scaling
benchmark, appends each run to the ``BENCH_micro.json`` /
``BENCH_e1.json`` trajectory artifacts (one entry per commit, so
regressions are visible over time), and asserts the determinism
invariants the optimization work must preserve:

* same seed, two runs -> identical :class:`MediumStats`, energy ledger,
  and event counts;
* batched broadcast fan-out vs. the legacy per-receiver path -> identical
  :class:`MediumStats` and ledger in EVERY regime, including loss AND
  jitter together (event counts intentionally differ: the batch path
  schedules one delivery event per transmission / distinct arrival time).

Each run entry also records the measured speedup ratios (``gates``).
This module only records them; after writing the artifacts a full run
hands them to :mod:`repro.analyze.regression`, which decides pass/fail
(the ratio targets below plus the trajectory floor and CI rules) and
sets the exit status.

Usage::

    python -m repro.bench                  # full run, appends to BENCH_*.json
    python -m repro.bench --check          # < 60 s smoke mode (tier-2 gate)
    python -m repro.bench --workers 4      # micro + E1 suites through the
                                           # repro.sweep shard scheduler on
                                           # 4 worker processes
    python -m repro.bench --profile        # cProfile the measurement phase,
                                           # dump BENCH_profile.pstats next
                                           # to the BENCH_*.json artifacts

(``python -m repro bench`` and ``benchmarks/bench_runner.py`` forward to
the same entry point, flags included.)

The workloads deliberately use only long-stable public APIs so the same
driver can be pointed at pre-optimization code to record a baseline.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import time
from collections import deque
from typing import Any, Deque, Dict, Hashable, List, Optional, Sequence

import numpy as np

from .core import CountAggregation, VirtualArchitecture
from .deployment import CellGrid, Terrain, build_network, ensure_coverage, uniform_random
from .deployment.topology import RealNetwork
from .runtime import deploy
from .simulator.engine import Simulator
from .simulator.network import WirelessMedium
from .simulator.process import Process, ProcessHost
from .sweep import SweepSpec, run_sweep

#: Version tag of the BENCH_*.json layout (2 = per-commit trajectories).
SCHEMA = 2

#: The headline acceptance target: optimized medium throughput must be at
#: least this multiple of the recorded pre-change baseline, and the timer
#: wheel at least this multiple of the legacy EventHandle replica.
SPEEDUP_TARGET = 2.0

#: Trajectory no-regression gate: already-optimized paths must stay within
#: this fraction of the best recorded run (slack for machine noise).
NO_REGRESSION_FLOOR = 0.85

#: The (workload, rate-metric) pairs whose recorded trajectory is gated —
#: the stable, machine-comparable hot paths.  :mod:`repro.analyze.regression`
#: applies the floor plus a prediction-interval rule to these series;
#: everything else in the trajectory is recorded and reported but never
#: gated (timer/partition speedups are gated as *ratios* measured on one
#: machine, and the E1 wall clocks are too small/noisy to compare across
#: runner hardware).
TRAJECTORY_GATES = (
    ("medium_broadcast_storm", "deliveries_per_s"),
    ("engine_event_pump", "events_per_s"),
    ("wire_codec", "roundtrips_per_s"),
    ("partition_storm", "serial_deliveries_per_s"),
)


def make_deployment(
    side: int = 8,
    n_random: int = 400,
    terrain_side: float = 100.0,
    range_cells: float = 2.3,
    seed: int = 11,
) -> RealNetwork:
    """A covered deployment, identical to the baseline driver's."""
    terrain = Terrain(terrain_side)
    cells = CellGrid(terrain, side)
    rng = np.random.default_rng(seed)
    positions = ensure_coverage(uniform_random(n_random, terrain, rng), cells, rng)
    return build_network(positions, cells, tx_range=cells.cell_side * range_cells)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def medium_broadcast_storm(
    rounds: int = 40,
    loss_rate: float = 0.1,
    seed: int = 11,
    net: Optional[RealNetwork] = None,
    batch_fanout: bool = True,
    jitter: float = 0.0,
) -> Dict[str, Any]:
    """Every alive node broadcasts once per round; pure medium hot path."""
    if net is None:
        net = make_deployment(seed=seed)
    sim = Simulator()
    medium = WirelessMedium(
        sim, net, loss_rate=loss_rate, jitter=jitter,
        rng=np.random.default_rng(seed), batch_fanout=batch_fanout,
    )
    ids = net.alive_ids()
    t0 = time.perf_counter()
    for r in range(rounds):
        for nid in ids:
            medium.broadcast(nid, "storm", r)
        sim.run()
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "transmissions": medium.stats.transmissions,
        "deliveries": medium.stats.deliveries,
        "drops": medium.stats.drops,
        "events_processed": sim.events_processed,
        "deliveries_per_s": medium.stats.deliveries / wall,
    }


def lossy_jittered_storm(
    rounds: int = 20,
    loss_rate: float = 0.1,
    jitter: float = 0.3,
    seed: int = 11,
    net: Optional[RealNetwork] = None,
    batch_fanout: bool = True,
) -> Dict[str, Any]:
    """The loss-AND-jitter regime: two stable hashes per broadcast.

    Loss is one vectorized hash over the receivers and jitter a second
    over the survivors, and the survivors' distinct arrival times become
    separate delivery events; it is tracked as its own workload so the
    trajectory shows that regime separately from the loss-only storm.
    """
    return medium_broadcast_storm(
        rounds=rounds, loss_rate=loss_rate, seed=seed, net=net,
        batch_fanout=batch_fanout, jitter=jitter,
    )


class _TimerChurnProcess(Process):
    """Relay-node timer churn: a window of in-flight retransmit timeouts.

    Models the transport shape that made the pre-wheel facility
    pathological: a relay forwarding steady traffic keeps one ack-timeout
    armed per in-flight packet (here a ``WINDOW`` of them, above the old
    256-entry prune threshold).  Each heartbeat cycle it acknowledges the
    ``BATCH`` oldest packets (cancelling their timeouts — they never
    fire), forwards a fresh batch (arming new ones), and occasionally
    gossips a routing-refresh broadcast so the medium stays in the loop.
    """

    #: Concurrently armed ack timeouts.  Deliberately above the legacy
    #: prune threshold (256): with that many *live* handles, the old
    #: prune scan ran on every ``set_timer`` and removed nothing.
    WINDOW = 320
    #: Timeouts cancelled + re-armed per heartbeat cycle.
    BATCH = 32

    def __init__(self, cycles: int):
        super().__init__()
        self.cycles_left = cycles
        self.timer_ops = 0
        self._uid = 0
        self._inflight: Deque[int] = deque()

    # the timer backend; the legacy subclass swaps in the pre-wheel one
    def arm(self, delay: float, tag: Hashable) -> None:
        self.set_timer(delay, tag)

    def disarm(self, tag: Hashable) -> None:
        self.cancel_timer(tag)

    def _forward_batch(self, count: int) -> None:
        for _ in range(count):
            self._uid += 1
            self._inflight.append(self._uid)
            self.arm(1000.0, ("ack", self._uid))
        self.timer_ops += count

    def _ack_batch(self, count: int) -> None:
        count = min(count, len(self._inflight))
        for _ in range(count):
            self.disarm(("ack", self._inflight.popleft()))
        self.timer_ops += count

    def on_start(self) -> None:
        self._forward_batch(self.WINDOW)
        self.arm(1.0, "hb")
        self.timer_ops += 1

    def on_timer(self, tag: Hashable) -> None:
        if tag != "hb":
            return
        self.timer_ops += 1  # the heartbeat fire itself
        self._ack_batch(self.BATCH)
        self.cycles_left -= 1
        if self.cycles_left % 16 == 0:
            self.broadcast("refresh", self.cycles_left, 0.25)
        if self.cycles_left > 0:
            self._forward_batch(self.BATCH)
            self.arm(1.0, "hb")
            self.timer_ops += 1
        else:
            self._ack_batch(len(self._inflight))  # drain the window


class _LegacyHandleTimerProcess(_TimerChurnProcess):
    """Same workload through a replica of the pre-wheel timer facility:
    one ``EventHandle`` allocation per timer, handles accumulated in a
    list pruned at 256 entries, tag-addressed cancellation through a side
    dict of live handles — exactly the shape ``Process.set_timer`` and the
    transport layer had before the migration."""

    def __init__(self, cycles: int):
        super().__init__(cycles)
        self._handles: List[Any] = []
        self._by_tag: Dict[Hashable, Any] = {}

    def arm(self, delay: float, tag: Hashable) -> None:
        handle = self.sim.schedule(delay, self._fire_timer, tag)
        self._handles.append(handle)
        if len(self._handles) > 256:
            self._handles = [h for h in self._handles if h.sim is not None]
        self._by_tag[tag] = handle

    def disarm(self, tag: Hashable) -> None:
        handle = self._by_tag.pop(tag, None)
        if handle is not None:
            handle.cancel()


def timer_storm(
    ops: int = 100_000,
    seed: int = 11,
    net: Optional[RealNetwork] = None,
    legacy_handles: bool = False,
) -> Dict[str, Any]:
    """~``ops`` timer set/cancel/fire operations across a protocol stack.

    ``legacy_handles=True`` runs the identical workload through the
    pre-wheel ``EventHandle`` replica; the ratio of the two runs'
    ``timer_ops_per_s`` is the timer-migration speedup recorded in the
    trajectory artifact.
    """
    if net is None:
        net = make_deployment(seed=seed)
    sim = Simulator()
    medium = WirelessMedium(sim, net, rng=np.random.default_rng(seed))
    host = ProcessHost(sim, medium)
    ids = net.alive_ids()[:32]  # the busy relay nodes host the churn
    per_proc = max(1, ops // len(ids))
    ops_per_cycle = 2 + 2 * _TimerChurnProcess.BATCH
    cycles = max(
        2, (per_proc - 2 * _TimerChurnProcess.WINDOW) // ops_per_cycle
    )
    factory = _LegacyHandleTimerProcess if legacy_handles else _TimerChurnProcess
    host.add_all(lambda nid: factory(cycles), node_ids=ids)
    host.start()
    t0 = time.perf_counter()
    sim.run_until_quiet()
    wall = time.perf_counter() - t0
    total_ops = sum(p.timer_ops for p in host.processes.values())  # type: ignore[attr-defined]
    return {
        "wall_s": wall,
        "timer_ops": total_ops,
        "events_processed": sim.events_processed,
        "transmissions": medium.stats.transmissions,
        "timer_ops_per_s": total_ops / wall,
    }


def unicast_pingpong(
    count: int = 20000, seed: int = 11, net: Optional[RealNetwork] = None
) -> Dict[str, Any]:
    """Repeated unicasts between two neighbours: the per-hop overhead path."""
    if net is None:
        net = make_deployment(seed=seed)
    sim = Simulator()
    medium = WirelessMedium(sim, net, rng=np.random.default_rng(seed))
    # highest-degree node: worst case for a linear neighbour-membership scan
    src = max(net.node_ids(), key=lambda n: len(net.neighbors(n, alive_only=False)))
    dst = net.neighbors(src)[0]
    t0 = time.perf_counter()
    for i in range(count):
        medium.unicast(src, dst, "ping", i)
        if i % 64 == 63:
            sim.run()
    sim.run()
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "transmissions": medium.stats.transmissions,
        "deliveries": medium.stats.deliveries,
        "events_processed": sim.events_processed,
        "unicasts_per_s": count / wall,
    }


def engine_event_pump(events: int = 200000) -> Dict[str, Any]:
    """Timer-chain through the raw engine: scheduling + dispatch overhead."""
    sim = Simulator()
    remaining = [events]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "events_processed": sim.events_processed,
        "events_per_s": sim.events_processed / wall,
    }


def wire_codec_roundtrip(ops: int = 50_000, seed: int = 11) -> Dict[str, Any]:
    """Encode+decode of a 1-unit reliable envelope: the per-hop codec cost
    that ``wire_format=True`` adds to every transport transmission."""
    from .core.program import Message
    from .runtime import wire
    from .runtime.routing import TransportEnvelope

    envelope = TransportEnvelope(
        src_cell=(0, 0),
        dst_cell=(7, 7),
        inner=Message(kind="mGraph", sender=(0, 0), payload=4, level=1),
        size_units=1.0,
        hops=3,
        uid=(42, 7),
    )
    frame = wire.encode_envelope(envelope)
    encode, decode = wire.encode_envelope, wire.decode_envelope
    t0 = time.perf_counter()
    for _ in range(ops):
        decoded = decode(encode(envelope))
    wall = time.perf_counter() - t0
    assert decoded == envelope, "wire round trip diverged inside the benchmark"
    return {
        "wall_s": wall,
        "roundtrips": ops,
        "frame_bytes": len(frame),
        "roundtrips_per_s": ops / wall,
    }


def fault_storm(
    side: int = 4,
    n_random: int = 150,
    kills: int = 2,
    corrupt_frames: int = 4,
    seed: int = 11,
) -> Dict[str, Any]:
    """One self-healing round under a mid-run fault storm (DESIGN.md §10).

    Kills ``kills`` cell leaders at t≈0.5 and corrupts the first
    ``corrupt_frames`` transport frames of a reliable round, then asserts
    the quad-tree query still completes with the correct count — the
    acceptance scenario of the fault model, timed end to end.
    """
    from .runtime import plan_leader_storm

    net = make_deployment(side=side, n_random=n_random, seed=seed)
    stack = deploy(net)
    va = VirtualArchitecture(side)
    spec = va.synthesize(CountAggregation(lambda c: True))
    plan = plan_leader_storm(
        sorted(stack.binding.leaders), kills=kills, at=0.5, seed=seed,
        corrupt_frames=corrupt_frames,
    )
    t0 = time.perf_counter()
    result = stack.run_application(
        spec, loss_rate=0.05, rng=np.random.default_rng(seed),
        reliable=True, max_retries=8, fault_plan=plan,
    )
    wall = time.perf_counter() - t0
    if result.root_payload != side * side:
        raise RuntimeError(
            f"fault_storm count mismatch: got {result.root_payload}, "
            f"want {side * side}"
        )
    report = result.fault_report
    assert report is not None
    return {
        "wall_s": wall,
        "transmissions": result.transmissions,
        "events_processed": result.events_processed,
        "failovers": len(report.failovers),
        "reroutes": report.reroutes,
        "frames_corrupted": report.frames_corrupted,
        "frames_rejected": report.frames_rejected,
        "events_per_s": result.events_processed / wall,
    }


def scenario_storm(
    side: int = 4,
    n_random: int = 150,
    hops: int = 6,
    seed: int = 11,
) -> Dict[str, Any]:
    """One round under the full scenario composition (DESIGN.md §14).

    Log-normal shadowing on every link (the medium hot path now runs the
    admission gate per potential reception), ``hops`` mid-run node
    relocations driving the self-healing re-bind path, duty-cycled source
    emissions, and a pursuit adversary parked at the root — the scenario
    subsystem's end-to-end cost, timed on the same deployment scale as
    ``fault_storm``.  A faded or re-homed world may legitimately fall
    short of the full count, so the row records ``app_count`` instead of
    asserting it.
    """
    from .scenario import (
        Attacker,
        LogNormalShadowing,
        Scenario,
        SourcePeriodModel,
        plan_cell_hops,
    )

    net = make_deployment(side=side, n_random=n_random, seed=seed)
    stack = deploy(net)
    va = VirtualArchitecture(side)
    spec = va.synthesize(CountAggregation(lambda c: True))
    cells = [(x, y) for x in range(side) for y in range(side)]
    scenario = Scenario(
        link=LogNormalShadowing(sigma=3.0, seed=seed),
        mobility=plan_cell_hops(
            sorted(net.node_ids()), cells, hops=hops, at=0.4, spacing=0.1, seed=seed
        ),
        attacker=Attacker(start_cell=(0, 0), source_cells=((side - 1, side - 1),)),
        sources=SourcePeriodModel(
            cells=((side - 1, side - 1), (1, side - 2)),
            period=1.0, first=0.2, count=3, dst_cell=(0, 0),
        ),
    )
    t0 = time.perf_counter()
    result = stack.run_application(
        spec, loss_rate=0.05, rng=np.random.default_rng(seed),
        reliable=True, max_retries=8, scenario=scenario,
    )
    wall = time.perf_counter() - t0
    report = result.scenario_report
    assert report is not None and report.attacker is not None
    row: Dict[str, Any] = {
        "wall_s": wall,
        "transmissions": result.transmissions,
        "events_processed": result.events_processed,
        "app_count": result.root_payload if len(result.exfiltrated) == 1 else -1,
        "events_per_s": result.events_processed / wall,
    }
    row.update(report.metrics())
    # normalized through _row_from_metrics so the row round-trips the
    # sweep metrics layer's float-cast (serial == sharded fingerprints:
    # attacker_capture_time lands on integral floats like -1.0)
    return _row_from_metrics({k: float(v) for k, v in row.items()})


def partition_storm(
    side: int = 32,
    rounds: int = 6,
    partitions: int = 4,
    seed: int = 11,
) -> Dict[str, Any]:
    """Serial vs. space-partitioned broadcast storm (DESIGN.md §12).

    Runs the same seeded storm twice over one ``side x side`` deployment:
    once on the classic single simulator (``partitions=1``) and once on
    the K-shard conservative-lookahead runner with one worker process per
    shard (clamped to the machine's budget).  The fingerprints must be
    identical — K is fingerprint-neutral, so serial == partitioned is
    checked end to end inside the workload itself.  The recorded
    ``speedup`` is only meaningful when ``workers`` real processes ran
    (see ``partition_gate_enforced`` in :func:`_gate`).
    """
    from .partition import effective_procs, run_partitioned_storm

    net = make_deployment(side=side, n_random=side * side * 6, seed=seed)
    t0 = time.perf_counter()
    serial = run_partitioned_storm(
        net, rounds=rounds, partitions=1, rng=np.random.default_rng(seed)
    )
    serial_wall = time.perf_counter() - t0
    budget = effective_procs(partitions)
    t0 = time.perf_counter()
    parallel = run_partitioned_storm(
        net, rounds=rounds, partitions=partitions, procs=budget.procs,
        rng=np.random.default_rng(seed),
    )
    parallel_wall = time.perf_counter() - t0
    if parallel.fingerprint != serial.fingerprint:
        raise RuntimeError(
            f"partition_storm fingerprint mismatch: serial "
            f"{serial.fingerprint} != partitioned {parallel.fingerprint} "
            f"(K={partitions}, procs={parallel.procs})"
        )
    return {
        "wall_s": serial_wall + parallel_wall,
        "serial_wall_s": serial_wall,
        "partitioned_wall_s": parallel_wall,
        # machine-dependent: excluded from micro_fingerprint
        "speedup": serial_wall / parallel_wall,
        "workers": parallel.procs,
        "side": side,
        "rounds": rounds,
        "partitions": partitions,
        "windows": parallel.windows,
        "transmissions": serial.transmissions,
        "deliveries": serial.deliveries,
        "events_processed": serial.events_processed,
        # serial == partitioned is asserted above; the digest itself is a
        # hex string, which the sweep metrics layer cannot carry
        "fingerprint_match": 1,
        "serial_deliveries_per_s": serial.deliveries / serial_wall,
        "deliveries_per_s": parallel.deliveries / parallel_wall,
    }


def query_serve(
    side: int = 16,
    storage_level: int = 2,
    n_queries: int = 8,
    seed: int = 11,
) -> Dict[str, Any]:
    """Cold-vs-warm query serving through one persistent engine.

    Brings up a :class:`repro.serve.QueryEngine` over a ``side x side``
    deployment with level-``storage_level`` distributed storage, then
    serves the same ``n_queries`` query cells twice: a cold pass (every
    aggregate fetched over the radio) and a warm pass (every aggregate in
    the freshness-epoch cache).  The recorded cold/warm energy and wall
    splits are the cache's headline numbers; the warm pass must be at
    least :data:`SERVE_CACHE_SPEEDUP_TARGET` x cheaper on both axes.
    """
    from .serve import QueryEngine

    net = make_deployment(side=side, n_random=side * side * 7, seed=seed)
    stack = deploy(net)
    va = VirtualArchitecture(side)
    gather = stack.run_application(
        va.synthesize(CountAggregation(lambda c: True), max_level=storage_level)
    )
    engine = QueryEngine(stack, storage=dict(gather.exfiltrated))
    leaders = sorted(stack.binding.leaders)
    step = max(1, len(leaders) // n_queries)
    query_cells = leaders[::step][:n_queries]

    def serve_pass() -> Dict[str, float]:
        energy0 = engine.medium.ledger.total
        tx0 = engine.medium.stats.transmissions
        t0 = time.perf_counter()
        for cell in query_cells:
            engine.query(cell, reduce_fn=sum)
        return {
            "wall_s": time.perf_counter() - t0,
            "energy": engine.medium.ledger.total - energy0,
            "transmissions": float(engine.medium.stats.transmissions - tx0),
        }

    cold = serve_pass()
    warm = serve_pass()
    hits = engine.stats.cache_hits
    misses = engine.stats.cache_misses
    # normalized through _row_from_metrics so the row round-trips the
    # sweep metrics layer's float-cast (serial == sharded fingerprints
    # even when the energy ledger lands on an integral value)
    return _row_from_metrics({
        "cold_wall_s": cold["wall_s"],
        "warm_wall_s": warm["wall_s"],
        "queries": len(query_cells) * 2,
        "storage_cells": len(gather.exfiltrated),
        "cold_energy": cold["energy"],
        "warm_energy": warm["energy"],
        "cold_transmissions": int(cold["transmissions"]),
        "warm_transmissions": int(warm["transmissions"]),
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "events_processed": engine.sim.events_processed,
        "wall_s": cold["wall_s"] + warm["wall_s"],
        "queries_per_s": len(query_cells) / warm["wall_s"],
    })


def serve_degraded(
    side: int = 8,
    storage_level: int = 1,
    n_queries: int = 6,
    seed: int = 11,
) -> Dict[str, Any]:
    """Warm-cache serving through a mid-campaign leader kill.

    The degraded-mode companion to :func:`query_serve`: brings up a
    :class:`repro.serve.QueryEngine` with healing enabled, runs a cold
    then a warm pass, kills the leader of one storage cell via an armed
    :class:`~repro.runtime.faults.FaultPlan`, lets failover detection run
    in one :meth:`~repro.serve.QueryEngine.tick`, then serves the same
    query cells again.  The recovered pass must stay *complete* (the
    failed-over leader answers from adopted storage) and — because the
    fault dirties exactly one cache cell — still beat the cold pass by
    :data:`SERVE_DEGRADED_SPEEDUP_TARGET` x on query-attributable energy.

    With healing enabled every serving round also carries heartbeat
    keep-alive traffic, which is paid whether or not any query runs, so
    the row first measures one idle tick's energy and reports each pass
    net of ``rounds x idle`` — otherwise the constant heartbeat floor
    would swamp the cache signal the gate is after.
    """
    from .runtime.faults import FaultEvent, FaultPlan, HealingConfig
    from .serve import QueryEngine, ServeConfig

    net = make_deployment(side=side, n_random=side * side * 7, seed=seed)
    stack = deploy(net)
    va = VirtualArchitecture(side)
    gather = stack.run_application(
        va.synthesize(CountAggregation(lambda c: True), max_level=storage_level)
    )
    engine = QueryEngine(
        stack,
        storage=dict(gather.exfiltrated),
        config=ServeConfig(
            healing=HealingConfig(heartbeat_interval=1.0, miss_threshold=2),
            healing_headroom=6.0,
        ),
    )
    leaders = sorted(stack.binding.leaders)
    step = max(1, len(leaders) // n_queries)
    query_cells = leaders[::step][:n_queries]

    def idle_tick() -> float:
        energy0 = engine.medium.ledger.total
        engine.tick()  # one empty round: the pure keep-alive floor
        return engine.medium.ledger.total - energy0

    def serve_pass(idle_energy: float) -> Dict[str, float]:
        energy0 = engine.medium.ledger.total
        t0 = time.perf_counter()
        outcomes = [engine.query(cell, reduce_fn=sum) for cell in query_cells]
        raw = engine.medium.ledger.total - energy0
        return {
            "wall_s": time.perf_counter() - t0,
            "energy": max(raw - len(query_cells) * idle_energy, 0.0),
            "complete": float(sum(o.complete for o in outcomes)),
        }

    idle_energy = idle_tick()
    cold = serve_pass(idle_energy)
    warm = serve_pass(idle_energy)
    victim = sorted(engine.storage_cells)[-1]
    engine.arm_faults(
        FaultPlan((FaultEvent(time=0.5, action="kill_leader", cell=victim),))
    )
    engine.tick()  # the kill fires; heartbeat loss detected; cell fails over
    # the floor shifts with the dead node (no rx spend): re-baseline
    idle_after = idle_tick()
    recovered = serve_pass(idle_after)
    report = engine._fault_report
    return _row_from_metrics({
        "cold_wall_s": cold["wall_s"],
        "warm_wall_s": warm["wall_s"],
        "recovered_wall_s": recovered["wall_s"],
        "queries": len(query_cells) * 3,
        "storage_cells": len(gather.exfiltrated),
        "idle_energy": idle_energy,
        "idle_energy_after": idle_after,
        "cold_energy": cold["energy"],
        "warm_energy": warm["energy"],
        "recovered_energy": recovered["energy"],
        "cold_complete": cold["complete"],
        "warm_complete": warm["complete"],
        "recovered_complete": recovered["complete"],
        "failovers": float(len(report.failovers)) if report else 0.0,
        "events_processed": engine.sim.events_processed,
        "wall_s": cold["wall_s"] + warm["wall_s"] + recovered["wall_s"],
        "queries_per_s": len(query_cells) / recovered["wall_s"]
        if recovered["wall_s"] > 0 else 0.0,
    })


#: Pinned seed of the micro suite (the historical trajectory seed).
MICRO_SEED = 11

#: Warm-cache queries must be at least this many times cheaper than cold
#: ones (energy and wall-clock) in the ``query_serve`` micro workload.
SERVE_CACHE_SPEEDUP_TARGET = 5.0

#: After a leader kill + failover, the recovered warm pass (exactly one
#: cache cell dirtied) must still be at least this many times cheaper on
#: energy than the cold pass in the ``serve_degraded`` micro workload.
SERVE_DEGRADED_SPEEDUP_TARGET = 2.0


def micro_variants(scale: float = 1.0) -> Dict[str, Any]:
    """The micro suite as named thunks of ``seed``, scale-resolved.

    This is the single source of truth for what one "full micro run"
    contains; :func:`run_micro` executes it serially, and the
    ``bench_micro`` sweep workload executes one named variant per run so
    ``--workers N`` can shard the suite across processes.
    """
    rounds = max(4, int(40 * scale))
    lj_rounds = max(4, int(20 * scale))
    timer_ops = max(20_000, int(100_000 * scale))
    pp_count = max(2000, int(20000 * scale))
    pump_events = max(20000, int(200000 * scale))
    codec_ops = max(5_000, int(50_000 * scale))
    return {
        "medium_broadcast_storm": lambda seed: medium_broadcast_storm(
            rounds=rounds, seed=seed, net=make_deployment(seed=seed)
        ),
        "medium_broadcast_storm_legacy_fanout": lambda seed: medium_broadcast_storm(
            rounds=rounds, seed=seed, net=make_deployment(seed=seed), batch_fanout=False
        ),
        "lossy_jittered_storm": lambda seed: lossy_jittered_storm(
            rounds=lj_rounds, seed=seed, net=make_deployment(seed=seed)
        ),
        "lossy_jittered_storm_legacy_fanout": lambda seed: lossy_jittered_storm(
            rounds=lj_rounds, seed=seed, net=make_deployment(seed=seed),
            batch_fanout=False,
        ),
        "timer_storm": lambda seed: timer_storm(
            ops=timer_ops, seed=seed, net=make_deployment(seed=seed)
        ),
        "timer_storm_legacy_handles": lambda seed: timer_storm(
            ops=timer_ops, seed=seed, net=make_deployment(seed=seed),
            legacy_handles=True,
        ),
        "unicast_pingpong": lambda seed: unicast_pingpong(
            count=pp_count, seed=seed, net=make_deployment(seed=seed)
        ),
        "engine_event_pump": lambda seed: engine_event_pump(events=pump_events),
        "wire_codec": lambda seed: wire_codec_roundtrip(ops=codec_ops, seed=seed),
        "fault_storm": lambda seed: fault_storm(seed=seed),
        "scenario_storm": lambda seed: scenario_storm(seed=seed),
        "partition_storm": lambda seed: partition_storm(
            side=32 if scale >= 1.0 else 8,
            rounds=6 if scale >= 1.0 else 3,
            partitions=4 if scale >= 1.0 else 2,
            seed=seed,
        ),
        "query_serve": lambda seed: query_serve(
            side=16 if scale >= 1.0 else (8 if scale >= 0.2 else 4),
            storage_level=1 if scale < 0.2 else 2,
            seed=seed,
        ),
        "serve_degraded": lambda seed: serve_degraded(
            side=8 if scale >= 0.2 else 4,
            n_queries=6 if scale >= 0.2 else 4,
            seed=seed,
        ),
    }


def micro_fingerprint(variant: str, row: Dict[str, Any]) -> str:
    """Digest of a micro row's deterministic counters (wall times and
    rates excluded): what serial-vs-sharded dispatch must agree on.

    ``speedup`` and ``workers`` are also excluded: they depend on wall
    clocks and on the worker-process budget of the dispatching machine
    (a sweep shard pins the partition budget to 1), not on the seed.
    """
    from .simulator.trace import stable_digest

    deterministic = tuple(
        sorted(
            (k, v) for k, v in row.items()
            if not k.endswith("_s") and not k.endswith("_per_s")
            and k not in ("speedup", "workers")
        )
    )
    return stable_digest((variant, deterministic))


def e1_deployed_scaling(
    sides: Sequence[int] = (4, 8), seed: int = 11, workers: int = 1
) -> List[Dict[str, Any]]:
    """End-to-end ``run_application`` wall time across deployment sizes.

    The rows are produced by dispatching the ``e1`` workload through the
    :mod:`repro.sweep` shard scheduler — serial and in-process with
    ``workers=1`` (the historical path), multi-core with ``workers>=2``
    for near-linear wall-clock speedup across sides.  ``seed`` is pinned
    via the spec's fixed params so every side replays the exact
    deployment the trajectory artifacts have always recorded, and the
    per-seed fingerprints are byte-identical in both modes.
    """
    spec = SweepSpec(
        name="bench-e1",
        workload="e1",
        grid={"side": [int(s) for s in sides]},
        fixed={"seed": int(seed)},
    )
    records = run_sweep(spec, out_path=None, workers=workers, progress=None)
    failures = [r for r in records if r["status"] != "ok"]
    if failures:
        raise RuntimeError(
            "E1 sweep runs failed: "
            + "; ".join(f"{r['run_id']}: {r['error']}" for r in failures)
        )
    by_side = {int(r["params"]["side"]): r["metrics"] for r in records}
    return [
        {
            "side": int(side),
            "n_nodes": int(by_side[int(side)]["n_nodes"]),
            "wall_s": by_side[int(side)]["wall_s"],
            "transmissions": int(by_side[int(side)]["transmissions"]),
            "tx_per_s": by_side[int(side)]["tx_per_s"],
        }
        for side in sides
    ]


def e1_partitioned_scaling(
    side: int = 32, partitions: Sequence[int] = (1, 4), seed: int = 11
) -> List[Dict[str, Any]]:
    """The E1 kernel at one large ``side``, serial vs. space-partitioned.

    Dispatches the ``e1`` sweep workload once per shard count and asserts
    every row's fingerprint matches the serial one (K is
    fingerprint-neutral).  The recorded wall times
    track how much of a full deployed round the partitioned runner can
    parallelize; the headline speedup gate lives in ``partition_storm``,
    which isolates the simulation hot path from deployment construction.
    """
    spec = SweepSpec(
        name="bench-e1-partitioned",
        workload="e1",
        grid={"partitions": [int(p) for p in partitions]},
        fixed={"seed": int(seed), "side": int(side)},
    )
    records = run_sweep(spec, out_path=None, workers=1, progress=None)
    failures = [r for r in records if r["status"] != "ok"]
    if failures:
        raise RuntimeError(
            "E1 partitioned sweep runs failed: "
            + "; ".join(f"{r['run_id']}: {r['error']}" for r in failures)
        )
    records.sort(key=lambda r: int(r["params"]["partitions"]))
    fingerprints = {
        int(r["params"]["partitions"]): r["fingerprint"] for r in records
    }
    base = fingerprints[min(fingerprints)]
    diverged = {k: fp for k, fp in fingerprints.items() if fp != base}
    if diverged:
        raise RuntimeError(
            f"E1 partitioned fingerprints diverged from serial {base}: {diverged}"
        )
    rows = []
    for record in records:
        metrics = record["metrics"]
        row = {
            "side": int(side),
            "partitions": int(record["params"]["partitions"]),
            "n_nodes": int(metrics["n_nodes"]),
            "wall_s": metrics["wall_s"],
            "transmissions": int(metrics["transmissions"]),
            "tx_per_s": metrics["tx_per_s"],
            "fingerprint": record["fingerprint"],
        }
        if "partition_procs" in metrics:
            row["partition_procs"] = int(metrics["partition_procs"])
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Determinism assertions
# ---------------------------------------------------------------------------


def _storm_fingerprint(
    batch_fanout: bool, rounds: int, seed: int = 11, jitter: float = 0.0
):
    net = make_deployment(seed=seed)
    sim = Simulator()
    medium = WirelessMedium(
        sim, net, loss_rate=0.1, jitter=jitter,
        rng=np.random.default_rng(seed), batch_fanout=batch_fanout,
    )
    for r in range(rounds):
        for nid in net.alive_ids():
            medium.broadcast(nid, "storm", r)
        sim.run()
    return (
        medium.stats.fingerprint(),
        medium.ledger.fingerprint(),
        sim.events_processed,
    )


def _reliable_fingerprint(seed: int):
    net = make_deployment(side=4, n_random=90, seed=7)
    stack = deploy(net)
    va = VirtualArchitecture(4)
    spec = va.synthesize(CountAggregation(lambda c: True))
    result = stack.run_application(
        spec, loss_rate=0.15, rng=np.random.default_rng(seed),
        reliable=True, max_retries=6,
    )
    return (
        dict(sorted((str(k), v) for k, v in result.ledger.per_node().items())),
        result.transmissions,
        result.drops,
        result.latency,
    )


def check_determinism(rounds: int = 5) -> Dict[str, Any]:
    """Assert the invariants; returns a summary dict for the artifact."""
    a = _storm_fingerprint(batch_fanout=True, rounds=rounds)
    b = _storm_fingerprint(batch_fanout=True, rounds=rounds)
    assert a == b, "same-seed storm runs diverged (stats/ledger/event count)"

    legacy = _storm_fingerprint(batch_fanout=False, rounds=rounds)
    legacy2 = _storm_fingerprint(batch_fanout=False, rounds=rounds)
    assert legacy == legacy2, "legacy-path runs are not seed-stable"
    assert a[0] == legacy[0], "batched fan-out changed MediumStats vs legacy path"
    assert a[1] == legacy[1], "batched fan-out changed the energy ledger vs legacy path"

    # the loss-AND-jitter regime: the vectorized loss and jitter hashes
    # must equal the per-receiver path's scalar ones
    lj = _storm_fingerprint(batch_fanout=True, rounds=rounds, jitter=0.3)
    lj_legacy = _storm_fingerprint(batch_fanout=False, rounds=rounds, jitter=0.3)
    assert lj[0] == lj_legacy[0], (
        "vectorized loss+jitter draws changed MediumStats vs per-receiver draws"
    )
    assert lj[1] == lj_legacy[1], (
        "vectorized loss+jitter draws changed the energy ledger vs per-receiver draws"
    )

    # draws are keyed by the transmission, not by a shard's stream: a
    # lossy, jittered storm on 4 shards must equal the whole-world run
    from .partition import run_partitioned_storm

    net = make_deployment(seed=11)
    storms = [
        run_partitioned_storm(
            net, rounds=rounds, partitions=k, procs=1, loss_rate=0.1,
            jitter=0.3, rng=np.random.default_rng(11),
        ).fingerprint
        for k in (1, 4)
    ]
    assert storms[0] == storms[1], (
        "lossy+jittered partitioned storm (K=4) diverged from the K=1 run"
    )

    r1 = _reliable_fingerprint(seed=42)
    r2 = _reliable_fingerprint(seed=42)
    assert r1 == r2, "same-seed reliable runs diverged"
    return {
        "storm_same_seed_identical": True,
        "batch_vs_legacy_stats_identical": True,
        "batch_vs_legacy_loss_jitter_identical": True,
        "partitioned_loss_jitter_identical": True,
        "reliable_same_seed_identical": True,
        "events_batched": a[2],
        "events_legacy": legacy[2],
    }


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _row_from_metrics(metrics: Dict[str, float]) -> Dict[str, Any]:
    """Undo the float-cast the sweep metrics layer applies to counters."""
    return {
        k: int(v)
        if isinstance(v, float) and v.is_integer()
        and not k.endswith("_s") and not k.endswith("_per_s")
        else v
        for k, v in metrics.items()
    }


def run_micro(smoke: bool = False, workers: int = 1) -> Dict[str, Any]:
    """The micro suite; ``workers >= 2`` shards it through ``repro.sweep``.

    Both paths execute the exact same :func:`micro_variants` thunks with
    the pinned :data:`MICRO_SEED`, so the deterministic counters (and
    hence :func:`micro_fingerprint`) are identical — only wall times
    differ.  Sharded rows come back through the scheduler's metrics
    layer, with integral counters restored to ints.
    """
    scale = 0.2 if smoke else 1.0
    variants = micro_variants(scale)
    if workers <= 1:
        return {name: thunk(MICRO_SEED) for name, thunk in variants.items()}
    spec = SweepSpec(
        name="bench-micro",
        workload="bench_micro",
        grid={"variant": list(variants)},
        fixed={"seed": MICRO_SEED, "scale": scale},
    )
    records = run_sweep(spec, out_path=None, workers=workers, progress=None)
    failures = [r for r in records if r["status"] != "ok"]
    if failures:
        raise RuntimeError(
            "micro sweep runs failed: "
            + "; ".join(f"{r['run_id']}: {r['error']}" for r in failures)
        )
    by_variant = {r["params"]["variant"]: r["metrics"] for r in records}
    return {name: _row_from_metrics(by_variant[name]) for name in variants}


def run_e1(smoke: bool = False, workers: int = 1) -> Dict[str, Any]:
    sides = (4, 8) if smoke else (4, 8, 16)
    return {
        "e1_deployed_scaling": e1_deployed_scaling(sides=sides, workers=workers),
        "e1_partitioned": e1_partitioned_scaling(
            side=8 if smoke else 32, partitions=(1, 2) if smoke else (1, 4)
        ),
    }


# ---------------------------------------------------------------------------
# Trajectory artifacts
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_trajectory(path: str, bench: str) -> List[Dict[str, Any]]:
    """Existing trajectory of ``path``; migrates schema-1 snapshots.

    The public read accessor of the ``BENCH_*.json`` layout (used by
    :mod:`repro.analyze` as well as this module's :func:`main`): a schema-1
    document was a single run with an optionally embedded pre-change
    ``baseline`` block; both become trajectory entries so the full
    history survives the migration.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return []
    if doc.get("bench") != bench:
        return []
    if doc.get("schema", 1) >= 2 and isinstance(doc.get("runs"), list):
        return doc["runs"]
    # schema-1 migration
    runs: List[Dict[str, Any]] = []
    if "baseline" in doc:
        base = doc["baseline"]
        workloads = (
            base if bench == "micro"
            else {"e1_deployed_scaling": base.get("e1_deployed_scaling", base)}
        )
        runs.append({"commit": "pre-pr1-baseline", "date": None,
                     "workloads": workloads})
    workloads = (
        doc.get("workloads")
        if bench == "micro"
        else {"e1_deployed_scaling": doc.get("e1_deployed_scaling", [])}
    )
    if workloads:
        entry: Dict[str, Any] = {"commit": "pr1", "date": None,
                                 "workloads": workloads}
        if "determinism" in doc:
            entry["determinism"] = doc["determinism"]
        if "speedup_vs_baseline" in doc:
            entry["speedup_vs_baseline"] = doc["speedup_vs_baseline"]
        runs.append(entry)
    return runs


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
        help="smoke mode: reduced workloads + determinism assertions, "
        "no artifacts written (< 60 s; the tier-2 gate)",
    )
    parser.add_argument(
        "--out-dir", default=".", help="directory for BENCH_*.json artifacts"
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="dispatch the micro suite and the E1 scaling suite through "
        "the repro.sweep shard scheduler on N worker processes "
        "(default 1 = serial in-process)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the measurement phase under cProfile and dump the "
        "pstats profile to BENCH_profile.pstats next to the BENCH_*.json "
        "artifacts (child worker processes are not profiled)",
    )
    args = parser.parse_args(argv)

    determinism = check_determinism(rounds=3 if args.check else 5)
    print("determinism: OK "
          f"(batched {determinism['events_batched']} events vs "
          f"legacy {determinism['events_legacy']})")

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    micro = run_micro(smoke=args.check, workers=args.workers)
    e1 = run_e1(smoke=args.check, workers=args.workers)
    if profiler is not None:
        import pstats

        profiler.disable()
        os.makedirs(args.out_dir, exist_ok=True)
        profile_path = f"{args.out_dir}/BENCH_profile.pstats"
        profiler.dump_stats(profile_path)
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(15)
        print(f"wrote {profile_path}")
    for name, row in micro.items():
        rate = {k: v for k, v in row.items() if k.endswith("_per_s")}
        print(f"{name}: wall={row['wall_s']:.3f}s {rate}")
    for row in e1["e1_deployed_scaling"]:
        print(f"e1 side={row['side']} n={row['n_nodes']}: wall={row['wall_s']:.4f}s")
    for row in e1["e1_partitioned"]:
        print(f"e1 side={row['side']} partitions={row['partitions']}"
              f" procs={row.get('partition_procs', 1)}:"
              f" wall={row['wall_s']:.4f}s fp={row['fingerprint']}")

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

    # smoke workloads are too short for stable ratios; --check gates only
    # on the determinism assertions above
    if args.check:
        print("smoke mode: artifacts not written")
        return 0

    commit = _git_commit()
    today = datetime.date.today().isoformat()
    micro_runs = load_trajectory(f"{args.out_dir}/BENCH_micro.json", "micro")
    run_entry = {
        "commit": commit,
        "date": today,
        "workloads": micro,
        "determinism": determinism,
        "gates": gates,
    }
    micro_runs = [r for r in micro_runs if r.get("commit") != commit]
    micro_runs.append(run_entry)
    micro_doc = {"bench": "micro", "schema": SCHEMA, "runs": micro_runs}

    e1_runs = load_trajectory(f"{args.out_dir}/BENCH_e1.json", "e1")
    e1_runs = [r for r in e1_runs if r.get("commit") != commit]
    e1_runs.append({"commit": commit, "date": today, "workloads": e1})
    e1_doc = {"bench": "e1", "schema": SCHEMA, "runs": e1_runs}

    for name, doc in (("BENCH_micro.json", micro_doc), ("BENCH_e1.json", e1_doc)):
        path = f"{args.out_dir}/{name}"
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")

    from .analyze.ingest import ingest_trajectory
    from .analyze.regression import analyze_trajectories
    from .analyze.tables import regression_table

    docs = [
        ingest_trajectory(f"{args.out_dir}/{name}", expect_bench=bench)
        for name, bench in (("BENCH_micro.json", "micro"), ("BENCH_e1.json", "e1"))
    ]
    report = analyze_trajectories([(doc.bench, doc.runs) for doc in docs])
    print(regression_table(report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())

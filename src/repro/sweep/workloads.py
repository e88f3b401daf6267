"""The workload registry: named, seed-pure experiment kernels.

Every workload is a function ``(params, seed) -> WorkloadOutcome`` that
builds its whole world (deployment, simulator, stack) from the params and
the seed, runs one experiment, and returns flat numeric metrics plus a
fingerprint digest.  Purity is the contract the scheduler relies on: given
the same ``(params, seed)`` a workload must produce the same fingerprint in
any process on any shard, which is what makes the cross-shard determinism
audit and serial-vs-sharded equivalence meaningful.

This is the only place a benchmark kernel is defined: ``repro.bench``'s
suite is a table of rows over these workloads.

Registered workloads:

``e1``      deployed quad-tree scaling (the E1 benchmark kernel): build a
            covered deployment of ``side**2 * 7`` nodes, run the Section 5
            protocols, execute one synthesized counting round.
``storm``   medium broadcast storm over ``loss`` / ``jitter`` regimes —
            the channel hot path in isolation (``batch_fanout=False`` runs
            the per-receiver oracle path).
``regions`` the paper's topographic-query case study on the virtual
            architecture, sweeping ``side`` / ``threshold``.
``churn``   maintenance under failure: kill a ``churn`` fraction of cell
            leaders (plus optional ``node_churn`` random nodes), run the
            Section 5.1 recovery path, optionally rotate leaders, and
            re-run the application on the recovered stack.
``serve``   persistent query serving: one :class:`repro.serve.QueryEngine`
            answers a seed-deterministic arrival stream over the deployed
            stack, with optional mid-stream field updates exercising
            epoch-based cache invalidation.

The perf diagnostics of ``repro.bench``: ``timer_storm`` (timer churn,
``legacy_handles=True`` for the pre-wheel replica), ``pingpong``,
``engine_event_pump``, ``wire_codec``, ``fault_storm``,
``scenario_storm``, ``partition_storm``, ``query_serve`` and
``serve_degraded``.  Their fingerprints digest the deterministic counters
(wall clocks, rates and the granted worker count excluded).

Names starting with ``_`` are internal fault-injection workloads used by
the scheduler's own tests.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Hashable, List

import numpy as np

from ..core import CountAggregation, VirtualArchitecture
from ..deployment import covered_network
from ..partition import effective_procs
from ..runtime import (
    FaultPlan,
    deploy,
    kill_leaders,
    kill_random_nodes,
    plan_leader_storm,
    recover,
    rotate_leaders,
)
from ..scenario import Scenario
from ..simulator.engine import Simulator
from ..simulator.network import WirelessMedium
from ..simulator.process import Process, ProcessHost
from ..simulator.trace import stable_digest


@dataclass
class WorkloadOutcome:
    """What one workload run reports back to the scheduler."""

    metrics: Dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""


WorkloadFn = Callable[[Dict[str, Any], int], WorkloadOutcome]

#: Registry of named workloads; extend with :func:`workload`.
WORKLOADS: Dict[str, WorkloadFn] = {}


def workload(name: str) -> Callable[[WorkloadFn], WorkloadFn]:
    """Decorator registering a sweep workload under ``name``."""

    def register(fn: WorkloadFn) -> WorkloadFn:
        WORKLOADS[name] = fn
        return fn

    return register


def get_workload(name: str) -> WorkloadFn:
    """Look up a workload; raises with the known names on a miss."""
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(k for k in WORKLOADS if not k.startswith("_")))
        raise KeyError(f"unknown workload {name!r} (known: {known})") from None


def public_workloads() -> List[str]:
    """The user-facing workload names (internal ``_``-prefixed ones hidden)."""
    return sorted(k for k in WORKLOADS if not k.startswith("_"))


def _count_all_cells(cell: Any) -> bool:
    """Module-level counting predicate: partitioned runs pickle the
    program spec into shard workers, which a lambda would break."""
    return True


@workload("e1")
def e1_scaling(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """One deployed quad-tree counting round at ``side`` (the E1 kernel).

    ``wire=True`` runs the identical round with every transport hop
    encoded through the :mod:`repro.runtime.wire` codec; the fingerprint
    is codec-independent by design, which is what the differential
    conformance tests pin.

    ``faultplan`` (a list of event dicts, the
    :meth:`~repro.runtime.faults.FaultPlan.to_dicts` shape) arms mid-run
    fault injection; the plan and the resulting
    :class:`~repro.runtime.faults.FaultReport` fold into the fingerprint,
    so seeded fault runs shard deterministically like fault-free ones.
    With a plan the round defaults to ``reliable=True`` and
    ``max_retries=8`` (self-healing needs the ARQ to redirect).

    ``partitions=K`` (K > 1) runs the round on the space-partitioned
    simulator (``repro.partition``).  K is part of the configuration
    identity (a sweep axis), but like the worker-process count it never
    changes the fingerprint; the worker count is resolved at run time — clamped against the sweep's own parallelism
    via ``REPRO_SWEEP_WORKERS`` — and recorded in the metrics
    (``partition_procs`` / ``partition_procs_clamped``) without touching
    the fingerprint.

    ``scenario`` (the :meth:`~repro.scenario.Scenario.to_dict` shape)
    plugs in the world models of :mod:`repro.scenario` — radio link
    model, mobility schedule, pursuit adversary, duty-cycled sources —
    as a sweep axis.  The scenario and its
    :class:`~repro.scenario.ScenarioReport` fold into the fingerprint,
    and the report's flat metrics (``link_faded``, ``relocations``,
    ``attacker_*``, ``source_*``) land in the sweep record.  Scenario
    rounds default to ``reliable=True`` and report ``app_count`` instead
    of asserting the exact total: a faded or re-homed world may
    legitimately fall short of the full count.
    """
    side = int(params.get("side", 8))
    n_random = int(params.get("n_random", side * side * 7))
    loss = float(params.get("loss", 0.0))
    wire = bool(params.get("wire", False))
    partitions = int(params.get("partitions", 1))
    plan_spec = params.get("faultplan")
    plan = FaultPlan.from_dicts(plan_spec) if plan_spec else None
    scenario = Scenario.coerce(params.get("scenario"))
    if scenario is not None and scenario.is_trivial():
        scenario = None
    reliable = bool(
        params.get("reliable", loss > 0.0 or plan is not None or scenario is not None)
    )
    max_retries = int(
        params.get("max_retries", 8 if (plan is not None or scenario is not None) else 3)
    )
    net = covered_network(side, n_random, seed)
    stack = deploy(net)
    va = VirtualArchitecture(side)
    spec = va.synthesize(CountAggregation(_count_all_cells))
    budget = effective_procs(partitions) if partitions > 1 else None
    t0 = time.perf_counter()
    result = stack.run_application(
        spec, loss_rate=loss, rng=np.random.default_rng(seed),
        reliable=reliable, max_retries=max_retries, wire_format=wire,
        fault_plan=plan, partitions=partitions,
        partition_procs=None if budget is None else budget.procs,
        scenario=scenario,
    )
    wall = time.perf_counter() - t0
    if scenario is None and result.root_payload != side * side:
        raise RuntimeError(
            f"E1 count mismatch: got {result.root_payload}, want {side * side}"
        )
    metrics = {
        "side": float(side),
        "n_nodes": float(len(net)),
        "wall_s": wall,
        "transmissions": float(result.transmissions),
        "tx_per_s": result.transmissions / wall,
        "latency": result.latency,
        "events_processed": float(result.events_processed),
    }
    if budget is not None:
        metrics["partitions"] = float(partitions)
        metrics["partition_procs"] = float(budget.procs)
        metrics["partition_procs_clamped"] = 1.0 if budget.clamped else 0.0
    fp_parts: List[Any] = [
        result.ledger.fingerprint(),
        result.transmissions,
        result.drops,
        result.latency,
        result.events_processed,
    ]
    if plan is not None:
        report = result.fault_report
        assert report is not None
        metrics["failovers"] = float(len(report.failovers))
        metrics["reroutes"] = float(report.reroutes)
        metrics["frames_rejected"] = float(report.frames_rejected)
        fp_parts.extend([plan.fingerprint(), report.fingerprint()])
    if scenario is not None:
        scn_report = result.scenario_report
        assert scn_report is not None
        metrics["app_count"] = float(
            result.root_payload if len(result.exfiltrated) == 1 else -1
        )
        metrics.update(scn_report.metrics())
        fp_parts.extend([scenario.fingerprint(), scn_report.fingerprint()])
    return WorkloadOutcome(metrics=metrics, fingerprint=stable_digest(tuple(fp_parts)))


@workload("storm")
def broadcast_storm(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """Every alive node broadcasts once per round; pure medium hot path."""
    side = int(params.get("side", 8))
    n_random = int(params.get("n_random", side * side * 6))
    rounds = int(params.get("rounds", 10))
    loss = float(params.get("loss", 0.0))
    jitter = float(params.get("jitter", 0.0))
    batch_fanout = bool(params.get("batch_fanout", True))
    net = covered_network(side, n_random, seed)
    sim = Simulator()
    medium = WirelessMedium(
        sim, net, loss_rate=loss, jitter=jitter, rng=np.random.default_rng(seed),
        batch_fanout=batch_fanout,
    )
    ids = net.alive_ids()
    t0 = time.perf_counter()
    for r in range(rounds):
        for nid in ids:
            medium.broadcast(nid, "storm", r)
        sim.run()
    wall = time.perf_counter() - t0
    return WorkloadOutcome(
        metrics={
            "wall_s": wall,
            "transmissions": float(medium.stats.transmissions),
            "deliveries": float(medium.stats.deliveries),
            "drops": float(medium.stats.drops),
            "events_processed": float(sim.events_processed),
            "deliveries_per_s": medium.stats.deliveries / wall,
        },
        fingerprint=stable_digest(
            (
                medium.stats.fingerprint(),
                medium.ledger.fingerprint(),
                sim.events_processed,
            )
        ),
    )


@workload("regions")
def topographic_regions(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """The case study on the virtual architecture: sweep side x threshold."""
    from ..apps import GaussianBlobField, TopographicQueryApp

    side = int(params.get("side", 16))
    threshold = float(params.get("threshold", 0.5))
    blobs = params.get(
        "blobs", [(0.28, 0.32, 0.11, 1.0), (0.72, 0.66, 0.08, 0.9)]
    )
    va = VirtualArchitecture(side)
    app = TopographicQueryApp(va, GaussianBlobField([tuple(b) for b in blobs]), threshold)
    t0 = time.perf_counter()
    report = app.run_virtual()
    wall = time.perf_counter() - t0
    perf = report.performance
    return WorkloadOutcome(
        metrics={
            "wall_s": wall,
            "regions": float(report.regions),
            "correct": float(report.correct),
            "latency": perf.latency,
            "total_energy": perf.total_energy,
            "messages": float(perf.messages),
            "events_processed": float(perf.messages),
        },
        fingerprint=stable_digest(
            (
                report.regions,
                report.expected_regions,
                report.correct,
                perf.latency,
                perf.total_energy,
                perf.messages,
            )
        ),
    )


@workload("churn")
def leader_churn(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """Failure/recovery cycle: kill leaders, recover, optionally rotate.

    ``churn`` is the fraction of cells whose bound leader is killed;
    ``node_churn`` additionally kills a uniform fraction of remaining
    nodes.  An unrecoverable deployment (emptied cell) is *not* an error —
    it is the measured outcome (``recovered = 0``), matching E8.

    ``midrun_kill`` > 0 additionally kills that many leaders *during* the
    post-recovery application round (in-run faults, DESIGN.md §10) —
    distinguishing the offline churn path above from the online
    self-healing one; the round then runs reliable with healing and the
    fault report folds into the fingerprint.
    """
    side = int(params.get("side", 4))
    n_random = int(params.get("n_random", 150))
    churn = float(params.get("churn", 0.25))
    node_churn = float(params.get("node_churn", 0.0))
    rotate = bool(params.get("rotate", False))
    wire = bool(params.get("wire", False))
    midrun_kill = int(params.get("midrun_kill", 0))
    if not 0.0 <= churn <= 1.0:
        raise ValueError(f"churn must be in [0, 1], got {churn}")
    net = covered_network(side, n_random, seed)
    stack = deploy(net)
    rng = np.random.default_rng(seed)
    cells = sorted(stack.binding.leaders)
    k = int(round(churn * len(cells)))
    victims = (
        [cells[i] for i in sorted(rng.choice(len(cells), size=k, replace=False))]
        if k
        else []
    )
    killed = kill_leaders(net, stack.binding, cells=victims)
    extra = kill_random_nodes(net, node_churn, rng=rng) if node_churn > 0 else []
    report = recover(net, previous=stack)
    metrics: Dict[str, float] = {
        "killed_leaders": float(len(killed)),
        "killed_random": float(len(extra)),
        "recovered": float(report.recovered),
        "reelected_cells": float(report.reelected_cells),
        "setup_messages": float(report.setup_messages),
        "setup_energy": report.setup_energy,
        "events_processed": 0.0,
    }
    fp_parts: List[Any] = [
        tuple(sorted(killed)),
        tuple(sorted(extra)),
        report.recovered,
        report.reelected_cells,
        report.setup_messages,
        report.setup_energy,
        tuple(report.precondition_problems),
    ]
    if report.recovered:
        live = rotate_leaders(net) if rotate else report.stack
        if rotate:
            moved = sum(
                1
                for cell in cells
                if live.binding.leaders.get(cell) != report.stack.binding.leaders.get(cell)
            )
            metrics["rotated_cells"] = float(moved)
            fp_parts.append(tuple(sorted((str(c), n) for c, n in live.binding.leaders.items())))
        va = VirtualArchitecture(side)
        plan = None
        if midrun_kill > 0:
            plan = plan_leader_storm(
                sorted(live.binding.leaders), kills=midrun_kill, at=0.5, seed=seed
            )
        run = live.run_application(
            va.synthesize(CountAggregation(lambda c: True)),
            wire_format=wire,
            reliable=plan is not None,
            max_retries=8 if plan is not None else 3,
            fault_plan=plan,
        )
        metrics["app_count"] = float(run.root_payload)
        metrics["app_latency"] = run.latency
        metrics["events_processed"] = float(run.events_processed)
        fp_parts.extend([run.ledger.fingerprint(), run.transmissions, run.latency])
        if plan is not None:
            report = run.fault_report
            assert report is not None
            metrics["midrun_failovers"] = float(len(report.failovers))
            fp_parts.extend([plan.fingerprint(), report.fingerprint()])
    return WorkloadOutcome(metrics=metrics, fingerprint=stable_digest(tuple(fp_parts)))


@workload("serve")
def query_serving(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """Persistent query serving over one deployed stack.

    Builds the deployment, populates level-1 distributed storage with one
    gathering round, then brings up a :class:`repro.serve.QueryEngine`
    and serves ``n_queries`` synthesized arrivals through admission
    batching.  ``updates`` > 0 splits the stream in half and mutates that
    many storage cells between the halves, so the sweep measures the
    cache's incremental-invalidation regime, not just all-hit/all-miss.
    The fingerprint folds the engine's full serving history, making
    serial-vs-sharded and wire-on/off equivalence checkable.

    Resilience axes (all default off, preserving legacy fingerprints):
    ``deadline`` bounds every query in virtual time with seeded retries,
    ``tenant_budget`` throttles each tenant's token bucket (with
    ``overload`` choosing shed vs defer), ``max_staleness`` lets tenants
    accept that many epochs of cache lag, and ``kill_leaders`` > 0 arms a
    mid-stream leader-kill chaos plan with healing so the sweep covers
    the degraded serving regime.  Outcome-taxonomy counts (DESIGN.md §16)
    are always emitted so analyze ingests shed/expired queries as named
    outcomes, never as failures.
    """
    from ..serve import QueryEngine, ServeConfig, TenantPolicy, synthesize_arrivals

    side = int(params.get("side", 4))
    n_random = int(params.get("n_random", side * side * 8))
    n_queries = int(params.get("n_queries", 16))
    tenants = int(params.get("tenants", 2))
    updates = int(params.get("updates", 0))
    loss = float(params.get("loss", 0.0))
    wire = bool(params.get("wire", False))
    reliable = bool(params.get("reliable", loss > 0.0))
    cache = bool(params.get("cache", True))
    mean_interarrival = float(params.get("mean_interarrival", 1.0))
    round_interval = float(params.get("round_interval", 2.0))
    deadline = float(params.get("deadline", 0.0)) or None
    tenant_budget = float(params.get("tenant_budget", 0.0)) or None
    max_staleness = int(params.get("max_staleness", 0))
    overload = str(params.get("overload", "shed"))
    kill_leaders = int(params.get("kill_leaders", 0))
    net = covered_network(side, n_random, seed)
    stack = deploy(net)
    va = VirtualArchitecture(side)
    gather = stack.run_application(
        va.synthesize(CountAggregation(lambda c: True), max_level=1)
    )
    default_policy = None
    if tenant_budget is not None or max_staleness > 0:
        default_policy = TenantPolicy(
            budget=tenant_budget, overload=overload, max_staleness=max_staleness
        )
    healing = None
    if kill_leaders > 0:
        from ..runtime.faults import HealingConfig

        healing = HealingConfig(heartbeat_interval=1.0, miss_threshold=2)
    engine = QueryEngine(
        stack,
        storage=dict(gather.exfiltrated),
        config=ServeConfig(
            loss_rate=loss,
            rng=np.random.default_rng(seed),
            reliable=reliable,
            wire_format=wire,
            cache=cache,
            deadline=deadline,
            default_policy=default_policy,
            healing=healing,
        ),
    )
    plan = None
    if kill_leaders > 0:
        from ..runtime.faults import plan_leader_storm

        plan = plan_leader_storm(
            sorted(engine.storage_cells), kills=kill_leaders, at=0.5, seed=seed
        )
        fault_report = engine.arm_faults(plan)
    arrivals = synthesize_arrivals(
        sorted(stack.binding.leaders),
        n_queries,
        seed=seed,
        mean_interarrival=mean_interarrival,
        tenants=tenants,
    )
    split = len(arrivals) // 2 if updates > 0 else len(arrivals)
    t0 = time.perf_counter()
    first = engine.serve(arrivals[:split], round_interval, reduce_fn=sum)
    for i, cell in enumerate(engine.storage_cells[:updates]):
        engine.update_field(cell, seed + i)
    second = engine.serve(arrivals[split:], round_interval, reduce_fn=sum)
    wall = time.perf_counter() - t0
    outcomes = first.outcomes + second.outcomes
    hits = sum(o.cache_hits for o in outcomes)
    misses = sum(o.cache_misses for o in outcomes)
    queries = len(outcomes)
    counts: Dict[str, int] = {}
    for report in (first, second):
        for name, n in report.outcome_counts().items():
            counts[name] = counts.get(name, 0) + n
    metrics = {
        "queries": float(queries),
        "complete_queries": float(
            first.complete_queries + second.complete_queries
        ),
        "ok_queries": float(counts.get("ok", 0)),
        "partial_queries": float(counts.get("partial", 0)),
        "shed_queries": float(counts.get("shed", 0)),
        "expired_queries": float(counts.get("deadline_expired", 0)),
        "deferred": float(engine.stats.deferred),
        "retries": float(engine.stats.retries),
        "late_responses": float(engine.stats.late_responses),
        "stale_hits": float(engine.stats.stale_hits),
        "rounds": float(len(first.batches) + len(second.batches)),
        "cache_hits": float(hits),
        "cache_misses": float(misses),
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "transmissions": float(first.transmissions + second.transmissions),
        "energy": first.energy + second.energy,
        "misdirected": float(engine.stats.misdirected),
        "events_processed": float(engine.sim.events_processed),
        "wall_s": wall,
        "queries_per_s": queries / wall if wall > 0 else 0.0,
    }
    fp_parts = [engine.fingerprint(), first.fingerprint(), second.fingerprint()]
    if plan is not None:
        metrics["failovers"] = float(len(fault_report.failovers))
        fp_parts.extend([plan.fingerprint(), fault_report.fingerprint()])
    return WorkloadOutcome(
        metrics=metrics,
        fingerprint=stable_digest(tuple(fp_parts)),
    )


def _counters_outcome(metrics: Dict[str, float]) -> WorkloadOutcome:
    """An outcome fingerprinted by its deterministic counters: wall clocks,
    rates (both end in ``_s``) and the machine-dependent ``speedup`` and
    granted ``workers`` are left out."""
    counters = tuple(
        sorted(
            (k, v) for k, v in metrics.items()
            if not k.endswith("_s") and k not in ("speedup", "workers")
        )
    )
    return WorkloadOutcome(metrics=metrics, fingerprint=stable_digest(counters))


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


@workload("timer_storm")
def timer_storm(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """~``ops`` timer set/cancel/fire operations across a protocol stack.

    ``legacy_handles=True`` runs the identical workload through the
    pre-wheel ``EventHandle`` replica; the ratio of the two runs'
    ``timer_ops_per_s`` is the timer-migration speedup the bench records.
    """
    ops = int(params.get("ops", 100_000))
    legacy = bool(params.get("legacy_handles", False))
    net = covered_network(8, 400, seed)
    sim = Simulator()
    medium = WirelessMedium(sim, net, rng=np.random.default_rng(seed))
    host = ProcessHost(sim, medium)
    ids = net.alive_ids()[:32]  # the busy relay nodes host the churn
    per_proc = max(1, ops // len(ids))
    ops_per_cycle = 2 + 2 * _TimerChurnProcess.BATCH
    cycles = max(2, (per_proc - 2 * _TimerChurnProcess.WINDOW) // ops_per_cycle)
    factory = _LegacyHandleTimerProcess if legacy else _TimerChurnProcess
    host.add_all(lambda nid: factory(cycles), node_ids=ids)
    host.start()
    t0 = time.perf_counter()
    sim.run_until_quiet()
    wall = time.perf_counter() - t0
    total_ops = sum(p.timer_ops for p in host.processes.values())  # type: ignore[attr-defined]
    return WorkloadOutcome(
        metrics={
            "wall_s": wall,
            "timer_ops": float(total_ops),
            "events_processed": float(sim.events_processed),
            "transmissions": float(medium.stats.transmissions),
            "timer_ops_per_s": total_ops / wall,
        },
        fingerprint=stable_digest(
            (total_ops, sim.events_processed, medium.stats.transmissions)
        ),
    )


@workload("pingpong")
def unicast_pingpong(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """``count`` unicasts between two neighbours: the per-hop overhead path."""
    count = int(params.get("count", 20_000))
    net = covered_network(8, 400, seed)
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
    stats = medium.stats
    return WorkloadOutcome(
        metrics={
            "wall_s": wall,
            "transmissions": float(stats.transmissions),
            "deliveries": float(stats.deliveries),
            "events_processed": float(sim.events_processed),
            "unicasts_per_s": count / wall,
        },
        fingerprint=stable_digest(
            (stats.transmissions, stats.deliveries, sim.events_processed)
        ),
    )


@workload("engine_event_pump")
def engine_event_pump(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """A chain of ``events`` timers through the raw engine: scheduling and
    dispatch overhead (the seed is unused: nothing is drawn)."""
    events = int(params.get("events", 200_000))
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
    return _counters_outcome({
        "wall_s": wall,
        "events_processed": float(sim.events_processed),
        "events_per_s": sim.events_processed / wall,
    })


@workload("wire_codec")
def wire_codec_roundtrip(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """``ops`` encode+decode round trips of a 1-unit reliable envelope: the
    per-hop codec cost that ``wire_format=True`` adds to every transport
    transmission."""
    from ..core.program import Message
    from ..runtime import wire
    from ..runtime.routing import TransportEnvelope

    ops = int(params.get("ops", 50_000))
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
    if decoded != envelope:
        raise RuntimeError("wire round trip diverged inside the benchmark")
    return _counters_outcome({
        "wall_s": wall,
        "roundtrips": float(ops),
        "frame_bytes": float(len(frame)),
        "roundtrips_per_s": ops / wall,
    })


@workload("fault_storm")
def fault_storm(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """One self-healing round under a mid-run fault storm (DESIGN.md §10).

    Kills ``kills`` cell leaders at t≈0.5 and corrupts the first
    ``corrupt_frames`` transport frames of a reliable round, then requires
    the quad-tree query to complete with the correct count — the
    acceptance scenario of the fault model, timed end to end.
    """
    side = int(params.get("side", 4))
    n_random = int(params.get("n_random", 150))
    kills = int(params.get("kills", 2))
    corrupt_frames = int(params.get("corrupt_frames", 4))
    stack = deploy(covered_network(side, n_random, seed))
    spec = VirtualArchitecture(side).synthesize(CountAggregation(_count_all_cells))
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
    return _counters_outcome({
        "wall_s": wall,
        "transmissions": float(result.transmissions),
        "events_processed": float(result.events_processed),
        "failovers": float(len(report.failovers)),
        "reroutes": float(report.reroutes),
        "frames_corrupted": float(report.frames_corrupted),
        "frames_rejected": float(report.frames_rejected),
        "events_per_s": result.events_processed / wall,
    })


@workload("scenario_storm")
def scenario_storm(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """One round under the full scenario composition (DESIGN.md §14).

    Log-normal shadowing on every link (the medium hot path runs the
    admission gate per potential reception), ``hops`` mid-run node
    relocations driving the self-healing re-bind path, duty-cycled source
    emissions, and a pursuit adversary parked at the root — the scenario
    subsystem's end-to-end cost, on the same deployment scale as
    ``fault_storm``.  A faded or re-homed world may legitimately fall
    short of the full count, so the row records ``app_count`` instead of
    asserting it.
    """
    from ..scenario import Attacker, LogNormalShadowing, SourcePeriodModel, plan_cell_hops

    side = int(params.get("side", 4))
    n_random = int(params.get("n_random", 150))
    hops = int(params.get("hops", 6))
    net = covered_network(side, n_random, seed)
    stack = deploy(net)
    spec = VirtualArchitecture(side).synthesize(CountAggregation(_count_all_cells))
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
    metrics = {
        "wall_s": wall,
        "transmissions": float(result.transmissions),
        "events_processed": float(result.events_processed),
        "app_count": float(result.root_payload if len(result.exfiltrated) == 1 else -1),
        "events_per_s": result.events_processed / wall,
    }
    metrics.update((k, float(v)) for k, v in report.metrics().items())
    return _counters_outcome(metrics)


@workload("partition_storm")
def partition_storm(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """Serial vs. space-partitioned broadcast storm (DESIGN.md §12).

    Runs the same seeded storm twice over one ``side x side`` deployment:
    once on the classic single simulator (``partitions=1``) and once on
    the K-shard conservative-lookahead runner with one worker process per
    shard (clamped to the machine's budget).  K is fingerprint-neutral,
    so serial == partitioned is checked inside the workload itself.  The
    recorded ``speedup`` is only meaningful when ``workers`` real
    processes ran.
    """
    from ..partition import run_partitioned_storm

    side = int(params.get("side", 32))
    rounds = int(params.get("rounds", 6))
    partitions = int(params.get("partitions", 4))
    net = covered_network(side, side * side * 6, seed)
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
    return WorkloadOutcome(
        metrics={
            "wall_s": serial_wall + parallel_wall,
            "serial_wall_s": serial_wall,
            "partitioned_wall_s": parallel_wall,
            "speedup": serial_wall / parallel_wall,
            "workers": float(parallel.procs),
            "side": float(side),
            "rounds": float(rounds),
            "partitions": float(partitions),
            "windows": float(parallel.windows),
            "transmissions": float(serial.transmissions),
            "deliveries": float(serial.deliveries),
            "events_processed": float(serial.events_processed),
            # serial == partitioned is asserted above
            "fingerprint_match": 1.0,
            "serial_deliveries_per_s": serial.deliveries / serial_wall,
            "deliveries_per_s": parallel.deliveries / parallel_wall,
        },
        fingerprint=serial.fingerprint,
    )


def _serving_engine(side: int, storage_level: int, seed: int, config: Any = None):
    """A query engine over a ``side x side`` stack with level-``storage_level``
    storage, plus the storage leaders its passes query."""
    from ..serve import QueryEngine

    stack = deploy(covered_network(side, side * side * 7, seed))
    va = VirtualArchitecture(side)
    gather = stack.run_application(
        va.synthesize(CountAggregation(_count_all_cells), max_level=storage_level)
    )
    engine = QueryEngine(stack, storage=dict(gather.exfiltrated), config=config)
    return engine, sorted(stack.binding.leaders), len(gather.exfiltrated)


def _query_cells(leaders: List[Any], n_queries: int) -> List[Any]:
    step = max(1, len(leaders) // n_queries)
    return leaders[::step][:n_queries]


@workload("query_serve")
def query_serve(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """Cold-vs-warm query serving through one persistent engine.

    Brings up a :class:`repro.serve.QueryEngine` over a ``side x side``
    deployment with level-``storage_level`` distributed storage, then
    serves the same ``n_queries`` query cells twice: a cold pass (every
    aggregate fetched over the radio) and a warm pass (every aggregate in
    the freshness-epoch cache).  The recorded cold/warm energy and wall
    splits are the cache's headline numbers.
    """
    side = int(params.get("side", 16))
    storage_level = int(params.get("storage_level", 2))
    n_queries = int(params.get("n_queries", 8))
    engine, leaders, storage_cells = _serving_engine(side, storage_level, seed)
    query_cells = _query_cells(leaders, n_queries)

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
    return _counters_outcome({
        "cold_wall_s": cold["wall_s"],
        "warm_wall_s": warm["wall_s"],
        "queries": float(len(query_cells) * 2),
        "storage_cells": float(storage_cells),
        "cold_energy": cold["energy"],
        "warm_energy": warm["energy"],
        "cold_transmissions": cold["transmissions"],
        "warm_transmissions": warm["transmissions"],
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "events_processed": float(engine.sim.events_processed),
        "wall_s": cold["wall_s"] + warm["wall_s"],
        "queries_per_s": len(query_cells) / warm["wall_s"],
    })


@workload("serve_degraded")
def serve_degraded(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """Warm-cache serving through a mid-campaign leader kill.

    The degraded-mode companion to ``query_serve``: brings up a
    :class:`repro.serve.QueryEngine` with healing enabled, runs a cold
    then a warm pass, kills the leader of one storage cell via an armed
    :class:`~repro.runtime.faults.FaultPlan`, lets failover detection run
    in one :meth:`~repro.serve.QueryEngine.tick`, then serves the same
    query cells again.  The recovered pass must stay *complete* (the
    failed-over leader answers from adopted storage) and — because the
    fault dirties exactly one cache cell — still beat the cold pass on
    query-attributable energy.

    With healing enabled every serving round also carries heartbeat
    keep-alive traffic, which is paid whether or not any query runs, so
    the row first measures one idle tick's energy and reports each pass
    net of ``rounds x idle`` — otherwise the constant heartbeat floor
    would swamp the cache signal the gate is after.
    """
    from ..runtime.faults import FaultEvent, HealingConfig
    from ..serve import ServeConfig

    side = int(params.get("side", 8))
    storage_level = int(params.get("storage_level", 1))
    n_queries = int(params.get("n_queries", 6))
    engine, leaders, storage_cells = _serving_engine(
        side, storage_level, seed,
        config=ServeConfig(
            healing=HealingConfig(heartbeat_interval=1.0, miss_threshold=2),
            healing_headroom=6.0,
        ),
    )
    query_cells = _query_cells(leaders, n_queries)

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
    return _counters_outcome({
        "cold_wall_s": cold["wall_s"],
        "warm_wall_s": warm["wall_s"],
        "recovered_wall_s": recovered["wall_s"],
        "queries": float(len(query_cells) * 3),
        "storage_cells": float(storage_cells),
        "idle_energy": idle_energy,
        "idle_energy_after": idle_after,
        "cold_energy": cold["energy"],
        "warm_energy": warm["energy"],
        "recovered_energy": recovered["energy"],
        "cold_complete": cold["complete"],
        "warm_complete": warm["complete"],
        "recovered_complete": recovered["complete"],
        "failovers": float(len(report.failovers)) if report else 0.0,
        "events_processed": float(engine.sim.events_processed),
        "wall_s": cold["wall_s"] + warm["wall_s"] + recovered["wall_s"],
        "queries_per_s": len(query_cells) / recovered["wall_s"]
        if recovered["wall_s"] > 0 else 0.0,
    })

@workload("_sleep")
def _sleep(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """Test-only: sleep for ``sleep_s`` (exercises the hang-timeout path)."""
    duration = float(params.get("sleep_s", 0.05))
    time.sleep(duration)
    return WorkloadOutcome(
        metrics={"slept_s": duration, "events_processed": 0.0},
        fingerprint=stable_digest(("sleep", duration, seed)),
    )


@workload("_fail")
def _fail(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """Test-only: always raises (exercises the structured-failure path)."""
    raise RuntimeError("injected workload failure")

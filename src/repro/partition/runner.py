"""Conservative-lookahead execution of space-partitioned runs.

The protocol (full spec: DESIGN.md §12) is windowed conservative PDES:

* Every shard owns a full :class:`~repro.simulator.engine.Simulator` /
  :class:`~repro.simulator.network.WirelessMedium` / process slice over a
  *replica* of the deployment, with deliveries to remote nodes diverted
  into egress records instead of local events.
* The driver advances all shards in lockstep windows.  Window ``k`` ends
  at horizon ``H_k = max(H_{k-1} + L, T_min + L)`` where ``L`` is the
  lookahead (the smallest per-hop radio latency in play) and ``T_min`` is
  the earliest pending event or buffered boundary arrival across shards —
  the ``max`` fast-forwards across empty stretches of virtual time
  without ever skipping a region that could emit cross-shard traffic.
* At each barrier the driver routes every egress record to its owning
  shard, which injects it at its exact arrival time before the next
  window.  A shard with nothing to say still answers the barrier — that
  empty reply is the null message that keeps quiet borders deadlock-free.
* The run terminates when every shard is drained and no egress is in
  flight; a wall-clock watchdog and an event budget bound livelock.

Determinism (the serial == partitioned invariant) comes from four rules:
every shard world is a private replica of one job snapshot — immutable
leaves (adjacency, positions, cost model) shared, every mutable container
copied per shard — plus the same pickled recipe bytes, whether it runs
in-process or in a worker; every shard's medium draws loss and jitter
from stable hashes under one run key carried in that recipe, so a draw
does not depend on which shard makes it; boundary arrivals are injected
in ``(time, src_shard, emit_seq)`` order; and merged observables are
either commutative sums (stats, energy, counters) or owner-resolved
(exfiltrated values, fault logs, battery write-back).
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import pickle
import time as wall_time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.coords import GridCoord
from ..core.cost_model import CostModel, EnergyLedger, UniformCostModel
from ..simulator.engine import Simulator
from ..simulator.network import Packet, PartitionSlice, WirelessMedium, run_key
from ..simulator.process import Process, ProcessHost
from ..simulator.trace import MediumStats, stable_digest
from ..runtime.faults import FaultEvent, FaultInjector, FaultPlan, FaultReport, HealingConfig
from ..runtime.wire import decode_packet, encode_packet
from ..scenario import Scenario, ScenarioInjector, ScenarioReport, merge_scenario_reports
from .plan import ShardPlan, plan_stripes

#: Packet kind used by the synthetic broadcast-storm workload.
STORM_KIND = "storm"

#: Environment variable the sweep scheduler exports to its workers so
#: nested partitioned runs can see how many siblings share the machine.
SWEEP_WORKERS_ENV = "REPRO_SWEEP_WORKERS"


# -- lookahead and core budgeting --------------------------------------------------


def default_lookahead(
    cost_model: Optional[CostModel] = None,
    healing: Optional[HealingConfig] = None,
) -> float:
    """The conservative per-hop latency bound for a configuration.

    The medium's delay for a frame of ``s`` data units is
    ``tx_latency(s)``, monotone in ``s``, so the lookahead is the latency
    of the *smallest* frame the runtime can emit: heartbeats/takeovers
    (``heartbeat_size_units``) when healing is enabled, else the unit
    frame (application messages and acks default to 1.0 data units).  The
    medium re-checks the bound on every egress, so an exotic workload
    sending sub-unit frames fails loudly instead of dropping causality.
    """
    cost_model = cost_model or UniformCostModel()
    min_units = healing.heartbeat_size_units if healing is not None else 1.0
    return cost_model.tx_latency(min_units)


@dataclass(frozen=True)
class ProcBudget:
    """Resolved worker-process count for a partitioned run.

    ``procs`` is what the run will actually use; ``requested`` is what the
    caller asked for (defaulting to one process per shard).  When a sweep
    campaign is driving (``REPRO_SWEEP_WORKERS`` exported by the
    scheduler), the per-run budget is ``cpus // sweep_workers`` so K-way
    runs inside an N-way sweep cannot oversubscribe the machine.
    """

    procs: int
    requested: int
    cpu_budget: int
    sweep_workers: int

    @property
    def clamped(self) -> bool:
        """Whether nested-parallelism clamping reduced the requested count."""
        return self.procs < self.requested


def effective_procs(partitions: int, procs: Optional[int] = None) -> ProcBudget:
    """Clamp the worker count for a ``partitions``-shard run.

    Oversubscription is resolved by shrinking the process pool —
    workers then multiplex several shard worlds — never by changing K,
    so the requested shard layout (and its boundary traffic) is what
    runs.  Neither knob changes a fingerprint.

    The cpu budget binds only when ``procs`` is auto-resolved (``None``):
    an explicit ``procs`` is an operator override, clamped just by the
    shard count.  Inside a daemonic process (a sweep shard worker) the
    pool is always pinned to 1 regardless: daemons cannot spawn
    children, so the run executes its shard worlds serially in-process —
    same fingerprint, no fork.
    """
    cpus = os.cpu_count() or 1
    try:
        sweep_workers = max(1, int(os.environ.get(SWEEP_WORKERS_ENV, "1")))
    except ValueError:
        sweep_workers = 1
    budget = max(1, cpus // sweep_workers)
    requested = partitions if procs is None else max(1, min(partitions, int(procs)))
    allowed = min(requested, budget) if procs is None else requested
    if mp.current_process().daemon:
        allowed = 1
    return ProcBudget(
        procs=max(1, allowed),
        requested=requested,
        cpu_budget=budget,
        sweep_workers=sweep_workers,
    )


# -- shard jobs (one world snapshot plus the pickled recipe) -----------------------


@dataclass
class _Job:
    """What every shard of one run is built from.

    ``world`` is the snapshot each shard replicates: the
    :class:`~repro.runtime.stack.DeployedStack` of an application round,
    the :class:`~repro.deployment.topology.RealNetwork` of a storm.  The
    other fields are the recipe, which travels pickled (:func:`_ship`).
    """

    world: Any
    plan: ShardPlan
    lookahead: float
    loss_rate: float
    jitter: float
    rng_key: int


@dataclass
class _AppJob(_Job):
    """Everything a shard needs to build one application round."""

    spec: Any
    reliable: bool
    max_retries: int
    ack_timeout: float
    wire_format: bool
    backoff_factor: float
    backoff_jitter: float
    fault_plan: Optional[FaultPlan]
    healing: Optional[HealingConfig]
    scenario: Optional[Scenario]


@dataclass
class _StormJob(_Job):
    """Construction recipe for the synthetic broadcast-storm workload."""

    cost_model: Any
    rounds: int
    interval: float
    size_units: float


class _StormProcess(Process):
    """Every node broadcasts ``rounds`` numbered frames, one per interval.

    Fully in-simulation (timer-driven, no external loop touching the
    simulator), so the same process definition runs unchanged inside a
    shard worker — unlike the bench's external-loop storms.
    """

    def __init__(self, rounds: int, interval: float, size_units: float):
        super().__init__()
        self._rounds = rounds
        self._interval = interval
        self._size = size_units
        self._sent = 0

    def on_start(self) -> None:
        self._fire()

    def on_timer(self, tag: Any) -> None:
        self._fire()

    def _fire(self) -> None:
        self.broadcast(STORM_KIND, self._sent, self._size)
        self._sent += 1
        if self._sent < self._rounds:
            self.set_timer(self._interval, "storm")


# -- per-shard world ---------------------------------------------------------------


@dataclass
class _ShardResult:
    """Final observables of one shard, shipped back at the last barrier."""

    shard_id: int
    ledger: EnergyLedger
    stats: MediumStats
    latency: float
    events: int
    overhead: int
    exfiltrated: Dict[GridCoord, Any]
    counters: Dict[str, int]
    rejected_frames: int
    report: Optional[FaultReport]
    # owner-authoritative write-back state: node_id -> (alive, consumed,
    # initial_energy, position), and cell -> leader for cells this shard owns
    node_state: Dict[int, Tuple[bool, float, float, Tuple[float, float]]]
    leaders: Dict[GridCoord, int]
    scenario_report: Optional[ScenarioReport] = None
    # owner-shard slice of the attacker's delivery tap (time, src, receiver)
    delivery_log: Tuple[Tuple[float, int, int], ...] = ()


class _ShardWorld:
    """One shard's simulator, medium, and resident processes."""

    def __init__(self, job: _Job, shard_id: int):
        # Every shard replicates the one snapshot it is handed (the
        # caller's world in process, a worker's single unpickled copy
        # otherwise): immutable leaves are shared, every mutable container
        # is copied, so no shard's drains, kills, moves or repairs reach a
        # sibling shard or the caller.
        job = dataclasses.replace(job, world=job.world.replica())
        self.job = job
        self.shard_id = shard_id
        plan: ShardPlan = job.plan
        self.plan = plan
        part = None
        if plan.partitions > 1:
            part = PartitionSlice(
                shard_id=shard_id,
                local=frozenset(plan.local_nodes[shard_id]),
                shard_of=plan.shard_of_node,
                lookahead=job.lookahead,
            )
        if isinstance(job, _StormJob):
            self.network = job.world
            self.sim = Simulator()
            self.medium = WirelessMedium(
                self.sim,
                job.world,
                cost_model=job.cost_model,
                loss_rate=job.loss_rate,
                rng=job.rng_key,
                jitter=job.jitter,
            )
            if part is not None:
                self.medium.configure_partition(part)
            self.host = ProcessHost(self.sim, self.medium)
        else:
            # application rounds go through the stack's single harness
            # construction point, same as the legacy path
            self.network = job.world.network
            self.sim, self.medium, self.host = job.world.make_harness(
                loss_rate=job.loss_rate,
                rng=job.rng_key,
                jitter=job.jitter,
                partition=part,
            )
        self.results: Dict[GridCoord, Any] = {}
        self.counters = {"delivered": 0, "dropped": 0, "orphaned": 0}
        self.processes: List[Any] = []
        self.report: Optional[FaultReport] = None
        if isinstance(job, _StormJob):
            self._populate_storm(job)
        else:
            self._populate_app(job)
        self.host.start()
        if isinstance(job, _AppJob) and job.fault_plan:
            self._arm_faults(job)
        self.scenario_injector: Optional[ScenarioInjector] = None
        self.scenario_report: Optional[ScenarioReport] = None
        if isinstance(job, _AppJob) and job.scenario is not None:
            self._arm_scenario(job)
        # boundary packets cross shards as wire-codec bytes when the run
        # exercises the wire format end to end
        self.wire_boundary = isinstance(job, _AppJob) and job.wire_format

    # -- construction ------------------------------------------------------------

    def _local_alive_ids(self) -> List[int]:
        owned = set(self.plan.local_nodes[self.shard_id])
        return [nid for nid in self.network.alive_ids() if nid in owned]

    def _populate_storm(self, job: _StormJob) -> None:
        for nid in self._local_alive_ids():
            proc = _StormProcess(job.rounds, job.interval, job.size_units)
            self.processes.append(proc)
            self.host.add(nid, proc)

    def _populate_app(self, job: _AppJob) -> None:
        from ..runtime.stack import _AppProcess

        if job.fault_plan is not None or job.healing is not None:
            self.report = FaultReport()
        stack = job.world
        for nid in self._local_alive_ids():
            cell = stack.network.cell_of(nid)
            program = (
                job.spec.program_for(cell)
                if stack.binding.leaders.get(cell) == nid
                else None
            )
            proc = _AppProcess(
                stack.topology,
                stack.binding,
                program,
                self.results,
                self.counters,
                reliable=job.reliable,
                max_retries=job.max_retries,
                ack_timeout=job.ack_timeout,
                wire_format=job.wire_format,
                backoff_factor=job.backoff_factor,
                backoff_jitter=job.backoff_jitter,
                healing=job.healing,
                fault_report=self.report,
                spec=job.spec,
            )
            self.processes.append(proc)
            self.host.add(nid, proc)

    def _owns_event(self, event: FaultEvent) -> bool:
        plan, sid = self.plan, self.shard_id
        if event.action == "kill_node":
            return plan.shard_of_node[event.node] == sid
        if event.action == "kill_leader":
            return plan.shard_of_cell(event.cell) == sid
        if event.action == "partition_links":
            return plan.shard_of_node[event.links[0][0]] == sid
        # corrupt_frame / restore act on shared state replicated
        # everywhere; shard 0 reports them
        return sid == 0

    def _arm_faults(self, job: _AppJob) -> None:
        medium = self.medium

        def count_overhead() -> None:
            medium.partition_overhead += 1

        single = self.plan.partitions == 1
        injector = FaultInjector(
            job.fault_plan,
            job.world.network,
            job.world.binding,
            self.report,
            owns=None if single else self._owns_event,
            overhead=None if single else count_overhead,
            # shard 0 owns the (globally shared) corruption budget; other
            # shards still fire the event but install no transform
            install_transform=single or self.shard_id == 0,
        )
        injector.arm(self.sim, medium)

    def _owns_node(self, nid: int) -> bool:
        return self.plan.shard_of_node[nid] == self.shard_id

    def _owns_cell(self, cell: GridCoord) -> bool:
        return self.plan.shard_of_cell(cell) == self.shard_id

    def _arm_scenario(self, job: _AppJob) -> None:
        medium = self.medium

        def count_overhead() -> None:
            medium.partition_overhead += 1

        single = self.plan.partitions == 1
        self.scenario_report = ScenarioReport()
        self.scenario_injector = ScenarioInjector(
            job.scenario,
            job.world.network,
            job.world.binding,
            self.host,
            self.scenario_report,
            owns_node=None if single else self._owns_node,
            owns_cell=None if single else self._owns_cell,
            overhead=None if single else count_overhead,
        )
        self.scenario_injector.arm(self.sim, medium)

    # -- window protocol ---------------------------------------------------------

    def advance(
        self,
        horizon: float,
        records: List[Tuple[int, float, int, int, Packet, Tuple[int, ...]]],
    ) -> Tuple[int, int, Optional[float], List[Tuple]]:
        """Inject boundary arrivals, drain events up to ``horizon``, and
        report ``(fired, pending, next_event_time, egress)``."""
        if records:
            records.sort(key=lambda rec: (rec[1], rec[2], rec[3]))
            wire = self.wire_boundary
            inject = self.medium.inject_boundary
            for _, time, _, _, packet, receivers in records:
                if wire:
                    packet = decode_packet(packet)
                inject(time, packet, receivers)
        fired = self.sim.run_until_lookahead(horizon)
        egress = self.medium.drain_egress()
        if self.wire_boundary and egress:
            # ship boundary packets as codec bytes, not pickled objects:
            # the same frames the wire-format run puts on the air
            egress = [
                (rec[0], rec[1], rec[2], rec[3], encode_packet(rec[4]), rec[5])
                for rec in egress
            ]
        return (
            fired,
            self.sim.pending,
            self.sim.next_event_time(),
            egress,
        )

    def finalize(self) -> _ShardResult:
        if self.report is not None:
            self.report.orphaned_deliveries = self.counters["orphaned"]
        delivery_log: Tuple[Tuple[float, int, int], ...] = ()
        if self.scenario_injector is not None:
            # no pursuit here: the parent replays it once over the merged tap
            self.scenario_injector.finalize(pursue=False)
            delivery_log = tuple(self.scenario_injector.delivery_log())
        network = self.network
        node_state = {
            nid: (node.alive, node.consumed_energy, node.initial_energy, node.position)
            for nid in self.plan.local_nodes[self.shard_id]
            for node in (network.nodes[nid],)
        }
        leaders: Dict[GridCoord, int] = {}
        if isinstance(self.job, _AppJob):
            leaders = {
                cell: leader
                for cell, leader in self.job.world.binding.leaders.items()
                if self.plan.shard_of_cell(cell) == self.shard_id
            }
        return _ShardResult(
            shard_id=self.shard_id,
            ledger=self.medium.ledger,
            stats=self.medium.stats,
            latency=self.sim.now,
            events=self.sim.events_processed,
            overhead=self.medium.partition_overhead,
            exfiltrated=self.results,
            counters=self.counters,
            rejected_frames=sum(
                getattr(p, "rejected_frames", 0) for p in self.processes
            ),
            report=self.report,
            node_state=node_state,
            leaders=leaders,
            scenario_report=self.scenario_report,
            delivery_log=delivery_log,
        )


# -- shard transports (serial multiplexer / pipe hub) ------------------------------


class _SerialShards:
    """All shard worlds multiplexed in the calling process."""

    def __init__(self, job: _Job, partitions: int):
        self.worlds = [_ShardWorld(job, sid) for sid in range(partitions)]

    def advance_all(self, horizon: float, inbox: Dict[int, List]) -> List[Tuple]:
        return [w.advance(horizon, inbox[w.shard_id]) for w in self.worlds]

    def finalize_all(self) -> List[_ShardResult]:
        return [w.finalize() for w in self.worlds]

    def close(self) -> None:
        pass


def _worker_main(conn, shard_ids: List[int]) -> None:
    """Worker-process loop: build the assigned shard worlds, then serve
    ``advance`` barriers until ``finalize``.  Any exception is shipped to
    the parent (which re-raises) instead of dying silently."""
    try:
        # one unpickled world per worker, however many shards it hosts
        world = pickle.loads(conn.recv_bytes())
        job = _unship(conn.recv_bytes(), world)
        worlds = {sid: _ShardWorld(job, sid) for sid in shard_ids}
        conn.send(("ready", None))
        while True:
            msg = conn.recv()
            if msg[0] == "advance":
                _, horizon, per_shard = msg
                out = [
                    (sid, worlds[sid].advance(horizon, per_shard.get(sid, [])))
                    for sid in shard_ids
                ]
                conn.send(("ok", out))
            elif msg[0] == "finalize":
                conn.send(("final", [(sid, worlds[sid].finalize()) for sid in shard_ids]))
                return
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown message {msg[0]!r}")
    except EOFError:  # parent died: exit quietly
        pass
    except Exception as exc:  # ship the failure to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


class _PipeShards:
    """Hub-and-spoke multiprocess transport: the parent is the hub.

    Shards are dealt round-robin onto ``procs`` workers; each barrier is
    one request/reply exchange per worker over an ``mp.Pipe``.  The
    parent routes egress between shards, so workers never talk to each
    other — the topology stays a star regardless of K.
    """

    def __init__(
        self,
        world_blob: bytes,
        recipe: bytes,
        partitions: int,
        procs: int,
        wall_timeout_s: Optional[float],
    ):
        ctx = mp.get_context()
        self._timeout = wall_timeout_s
        self._assignment: List[List[int]] = [[] for _ in range(procs)]
        for sid in range(partitions):
            self._assignment[sid % procs].append(sid)
        self._conns = []
        self._procs = []
        for shard_ids in self._assignment:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(child_conn, shard_ids), daemon=True
            )
            proc.start()
            child_conn.close()
            parent_conn.send_bytes(world_blob)
            parent_conn.send_bytes(recipe)
            self._conns.append(parent_conn)
            self._procs.append(proc)
        for conn in self._conns:
            self._recv(conn)  # ready barrier: construction errors surface here

    def _recv(self, conn):
        if self._timeout is not None and not conn.poll(self._timeout):
            self.close()
            raise RuntimeError(
                f"partition watchdog: no barrier reply within {self._timeout}s "
                "(deadlocked or wedged shard worker)"
            )
        tag, payload = conn.recv()
        if tag == "error":
            self.close()
            raise RuntimeError(f"shard worker failed: {payload}")
        return payload

    def advance_all(self, horizon: float, inbox: Dict[int, List]) -> List[Tuple]:
        for conn, shard_ids in zip(self._conns, self._assignment):
            conn.send(
                ("advance", horizon, {sid: inbox[sid] for sid in shard_ids})
            )
        results: Dict[int, Tuple] = {}
        for conn in self._conns:
            for sid, res in self._recv(conn):
                results[sid] = res
        return [results[sid] for sid in sorted(results)]

    def finalize_all(self) -> List[_ShardResult]:
        for conn in self._conns:
            conn.send(("finalize",))
        finals: Dict[int, _ShardResult] = {}
        for conn in self._conns:
            for sid, res in self._recv(conn):
                finals[sid] = res
        self.close()
        return [finals[sid] for sid in sorted(finals)]

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)


# -- the window driver -------------------------------------------------------------


def _drive_windows(
    shards,
    n_shards: int,
    lookahead: float,
    max_events: int,
    wall_timeout_s: Optional[float],
) -> int:
    """Advance all shards in conservative lockstep windows until drained.

    Returns the number of synchronization windows executed.
    """
    horizon = 0.0
    inbox: Dict[int, List] = {sid: [] for sid in range(n_shards)}
    # process boots are scheduled at t=0, so 0.0 is a valid (conservative)
    # initial lower bound for every shard's next event
    next_times: List[Optional[float]] = [0.0] * n_shards
    total_fired = 0
    windows = 0
    deadline = (
        None if wall_timeout_s is None else wall_time.monotonic() + wall_timeout_s
    )
    while True:
        times = [t for t in next_times if t is not None]
        times.extend(rec[1] for recs in inbox.values() for rec in recs)
        if not times:
            break  # every queue drained and nothing in flight
        # fast-forward rule: never skip a region that could hold an event,
        # but jump straight across provably empty stretches of time
        horizon = max(horizon + lookahead, min(times) + lookahead)
        results = shards.advance_all(horizon, inbox)
        windows += 1
        inbox = {sid: [] for sid in range(n_shards)}
        any_egress = False
        for sid, (fired, _pending, next_t, egress) in enumerate(results):
            total_fired += fired
            next_times[sid] = next_t
            for rec in egress:
                inbox[rec[0]].append(rec)
                any_egress = True
        if total_fired > max_events:
            raise RuntimeError(
                f"partitioned run exceeded max_events={max_events} "
                f"({total_fired} fired over {windows} windows)"
            )
        if deadline is not None and wall_time.monotonic() > deadline:
            raise RuntimeError(
                f"partition watchdog: run exceeded {wall_timeout_s}s wall clock "
                f"after {windows} windows"
            )
        if not any_egress and all(res[1] == 0 for res in results):
            break
    return windows


def _pickle(obj) -> bytes:
    try:
        return pickle.dumps(obj)
    except Exception as exc:
        raise TypeError(
            "partitioned runs ship the deployment and program spec to shard "
            "workers, so every ingredient must pickle — use module-level "
            f"functions instead of lambdas/closures in aggregation specs ({exc})"
        ) from None


def _ship(job: _Job) -> bytes:
    """The recipe: ``job`` pickled without its world, on every path."""
    return _pickle(dataclasses.replace(job, world=None))


def _unship(recipe: bytes, world: Any) -> _Job:
    job = pickle.loads(recipe)
    job.world = world
    return job


def _make_shards(
    job: _Job,
    partitions: int,
    procs: int,
    wall_timeout_s: Optional[float],
):
    recipe = _ship(job)
    if procs <= 1:
        return _SerialShards(_unship(recipe, job.world), partitions)
    return _PipeShards(
        _pickle(job.world), recipe, partitions, procs, wall_timeout_s
    )


def merge_fault_reports(
    reports: List[FaultReport], shard_count: int
) -> FaultReport:
    """Fold per-shard fault reports into one deterministic record.

    Counters sum; the event log is the shard-order concatenation stably
    re-sorted by ``(time, action)`` (matching the arming order of a
    whole-world run); failovers sort by ``(time, cell)``.
    """
    merged = FaultReport()
    for report in reports:
        merged.injected.extend(report.injected)
        merged.failovers.extend(report.failovers)
        merged.detected_failures += report.detected_failures
        merged.reroutes += report.reroutes
        merged.redirected_retransmissions += report.redirected_retransmissions
        merged.frames_corrupted += report.frames_corrupted
        merged.frames_rejected += report.frames_rejected
        merged.orphaned_deliveries += report.orphaned_deliveries
    if shard_count > 1:
        merged.injected.sort(key=lambda entry: (entry[0], entry[1]))
        merged.failovers.sort(key=lambda entry: (entry[0], entry[1]))
    return merged


# -- public entry points -----------------------------------------------------------


def run_partitioned_application(
    stack,
    spec,
    partitions: int,
    procs: Optional[int] = None,
    loss_rate: float = 0.0,
    rng: "np.random.Generator | int | None" = None,
    max_events: int = 10_000_000,
    reliable: bool = False,
    max_retries: int = 3,
    ack_timeout: float = 4.0,
    wire_format: bool = False,
    backoff_factor: float = 2.0,
    backoff_jitter: float = 0.5,
    fault_plan: Optional[FaultPlan] = None,
    healing: Optional[HealingConfig] = None,
    scenario: Any = None,
    jitter: float = 0.0,
    lookahead: Optional[float] = None,
    wall_timeout_s: Optional[float] = None,
):
    """Space-partitioned equivalent of ``DeployedStack.run_application``.

    Splits the grid into ``partitions`` cell-aligned stripes and runs the
    application round under the conservative window protocol, on
    ``procs`` worker processes (``None`` = one per shard, clamped to the
    core budget; ``1`` = in-process serial execution of the identical
    shard protocol).  Returns a ``DeployedRunResult`` whose fingerprint
    is invariant to ``procs`` and to ``partitions``: every K reproduces
    the legacy single-simulator round, loss and jitter included (under
    the same-instant tie rule of DESIGN.md §12).

    After the run, owner-shard node state (batteries, liveness) and cell
    leadership are written back to ``stack``, preserving the multi-round
    "same batteries" contract.
    """
    from ..runtime.stack import DeployedRunResult

    side = stack.network.cells.cells_per_side
    grid = spec.groups.grid
    if (grid.width, grid.height) != (side, side):
        raise ValueError(
            f"program grid {grid.width}x{grid.height} does not match "
            f"the {side}x{side} cell decomposition"
        )
    scenario = Scenario.coerce(scenario)
    if scenario is not None and scenario.is_trivial():
        scenario = None
    if healing is None and (
        fault_plan is not None or (scenario is not None and scenario.mobility)
    ):
        healing = HealingConfig()
    plan = plan_stripes(stack.network, partitions)
    if lookahead is None:
        lookahead = default_lookahead(stack.cost_model, healing)
    job = _AppJob(
        world=stack,
        spec=spec,
        plan=plan,
        lookahead=lookahead,
        loss_rate=loss_rate,
        jitter=jitter,
        reliable=reliable,
        max_retries=max_retries,
        ack_timeout=ack_timeout,
        wire_format=wire_format,
        backoff_factor=backoff_factor,
        backoff_jitter=backoff_jitter,
        fault_plan=fault_plan,
        healing=healing,
        scenario=scenario,
        rng_key=run_key(rng, loss_rate, jitter),
    )
    budget = effective_procs(partitions, procs)
    shards = _make_shards(job, partitions, budget.procs, wall_timeout_s)
    try:
        _drive_windows(shards, partitions, lookahead, max_events, wall_timeout_s)
        results = shards.finalize_all()
    finally:
        shards.close()

    ledger = EnergyLedger()
    stats = MediumStats()
    exfiltrated: Dict[GridCoord, Any] = {}
    counters = {"delivered": 0, "dropped": 0, "orphaned": 0}
    events = 0
    latency = 0.0
    rejected = 0
    for res in results:
        ledger.merge(res.ledger)
        stats.merge(res.stats)
        exfiltrated.update(res.exfiltrated)
        for key in counters:
            counters[key] += res.counters[key]
        events += res.events - res.overhead
        latency = max(latency, res.latency)
        rejected += res.rejected_frames
    report = None
    if any(res.report is not None for res in results):
        report = merge_fault_reports(
            [res.report for res in results if res.report is not None], partitions
        )
    scenario_report = None
    if scenario is not None:
        scenario_report = merge_scenario_reports(
            res.scenario_report for res in results if res.scenario_report is not None
        )
    # pursuit endpoints resolve against the *arm-time* binding (what every
    # shard replica saw), so capture them before the post-run write-back
    # replaces leaderships
    attacker_start: Optional[int] = None
    attacker_sources: Tuple[int, ...] = ()
    if scenario is not None and scenario.attacker is not None:
        leaders = stack.binding.leaders
        attacker_start = leaders.get(scenario.attacker.start_cell)
        attacker_sources = tuple(
            sorted(
                {
                    leaders[c]
                    for c in scenario.attacker.source_cells
                    if leaders.get(c) is not None
                }
            )
        )
    _write_back(stack, results)
    if scenario is not None and scenario.attacker is not None:
        # one pursuit over the merged tap, on post-write-back positions —
        # exactly what the serial injector's finalize() computes
        tap = sorted(rec for res in results for rec in res.delivery_log)
        scenario_report.attacker = scenario.attacker.pursue(
            tap, attacker_start, attacker_sources, stack.network
        )
    return DeployedRunResult(
        exfiltrated=exfiltrated,
        ledger=ledger,
        latency=latency,
        transmissions=stats.transmissions,
        drops=counters["dropped"],
        delivered_envelopes=counters["delivered"],
        events_processed=events,
        rejected_frames=rejected,
        fault_report=report,
        scenario_report=scenario_report,
    )


def _write_back(stack, results: List[_ShardResult]) -> None:
    """Copy owner-shard replica state onto the parent stack.

    Batteries drained (and kills suffered) inside shard replicas must
    land on the parent ``RealNetwork`` so successive rounds on one stack
    keep draining the same batteries, and post-failover leadership must
    land on the parent binding so the next round hosts programs where the
    healed run left them.  Gradient/topology healing state intentionally
    stays per-run (a fresh round re-heals), mirroring how each legacy
    round gets a fresh simulator.
    """
    network = stack.network
    for res in results:
        for nid, (alive, consumed, initial, position) in res.node_state.items():
            node = network.nodes[nid]
            if node.position != position:
                # mobility re-homed this node inside its owner replica:
                # replay the move so parent adjacency/cell state match
                network.move_node(nid, position)
            node.initial_energy = initial
            node._consumed = consumed
            node.alive = alive
        if res.leaders:
            stack.binding.leaders.update(res.leaders)
    network._bump_liveness_generation()


@dataclass
class StormOutcome:
    """Merged observables of a (possibly partitioned) broadcast storm."""

    transmissions: int
    deliveries: int
    drops: int
    events_processed: int
    latency: float
    windows: int
    partitions: int
    procs: int
    fingerprint: str


def run_partitioned_storm(
    network,
    rounds: int = 10,
    interval: float = 2.0,
    size_units: float = 1.0,
    partitions: int = 1,
    procs: Optional[int] = None,
    loss_rate: float = 0.0,
    jitter: float = 0.0,
    rng: "np.random.Generator | int | None" = None,
    cost_model: Optional[CostModel] = None,
    max_events: int = 50_000_000,
    lookahead: Optional[float] = None,
    wall_timeout_s: Optional[float] = None,
) -> StormOutcome:
    """Timer-driven broadcast storm, the partition bench/test workload.

    ``partitions=1`` runs the legacy whole-world path (one simulator, no
    window machinery) — the honest serial baseline the bench's speedup
    gate compares against.  The outcome fingerprint is invariant across
    K, lossy and jittered storms included, so the bench asserts serial ==
    partitioned on top of timing.
    """
    cost_model = cost_model or UniformCostModel()
    if lookahead is None:
        lookahead = cost_model.tx_latency(size_units)
    plan = plan_stripes(network, partitions)
    job = _StormJob(
        world=network,
        cost_model=cost_model,
        plan=plan,
        lookahead=lookahead,
        loss_rate=loss_rate,
        jitter=jitter,
        rounds=rounds,
        interval=interval,
        size_units=size_units,
        rng_key=run_key(rng, loss_rate, jitter),
    )
    if partitions == 1:
        world = _make_shards(job, 1, 1, None).worlds[0]
        world.sim.run(max_events=max_events)
        if world.sim.pending:
            raise RuntimeError("storm did not quiesce within the event budget")
        results = [world.finalize()]
        windows = 0
        used_procs = 1
    else:
        budget = effective_procs(partitions, procs)
        used_procs = budget.procs
        shards = _make_shards(job, partitions, budget.procs, wall_timeout_s)
        try:
            windows = _drive_windows(
                shards, partitions, lookahead, max_events, wall_timeout_s
            )
            results = shards.finalize_all()
        finally:
            shards.close()
    stats = MediumStats()
    ledger = EnergyLedger()
    events = 0
    latency = 0.0
    for res in results:
        stats.merge(res.stats)
        ledger.merge(res.ledger)
        events += res.events - res.overhead
        latency = max(latency, res.latency)
    fingerprint = stable_digest(
        (stats.fingerprint(), ledger.fingerprint(), events, latency)
    )
    return StormOutcome(
        transmissions=stats.transmissions,
        deliveries=stats.deliveries,
        drops=stats.drops,
        events_processed=events,
        latency=latency,
        windows=windows,
        partitions=partitions,
        procs=used_procs,
        fingerprint=fingerprint,
    )

"""Space-partitioned parallel simulator (DESIGN.md §12).

The subsystem's contract, pinned here:

* **serial == partitioned**: for every seeded configuration the K-shard
  conservative-lookahead run produces the same fingerprint as the K = 1
  run, whether the shard worlds execute serially in-process or on real
  worker processes — across loss, jitter, wire-codec, and fault-plan
  regimes (property test plus pinned regression examples).  Loss and
  jitter are stable hashes under one run key, so K never selects a
  different draw;
* K = 1 through the partition entry point is byte-identical to the
  legacy single-simulator path (same run key);
* battery drain and leader state are written back to the parent stack,
  so a partitioned round composes with follow-up rounds exactly like a
  serial one;
* the medium refuses transmissions whose delay undercuts the declared
  lookahead bound (the conservative-synchronization safety net);
* nested parallelism resolves by shrinking the worker pool, never K;
* every shard world is a private replica of one snapshot: a replica's
  mutations never reach the original, and a round on a replica equals
  a round on a pickle round trip of the same stack;
* every user-supplied ingredient must pickle, in process or not.
"""

from __future__ import annotations

import os
import pickle
from typing import Optional

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, example, given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - baked into the test image
    HAVE_HYPOTHESIS = False

from repro.core import CountAggregation, VirtualArchitecture
from repro.core.coords import Direction
from repro.partition import (
    SWEEP_WORKERS_ENV,
    default_lookahead,
    effective_procs,
    plan_stripes,
    run_partitioned_application,
    run_partitioned_storm,
)
from repro.runtime import FaultEvent, FaultPlan, deploy
from repro.scenario import Scenario, plan_cell_hops
from repro.simulator.engine import Simulator

from conftest import make_deployment


def _count_all(cell) -> bool:
    """Module-level predicate: specs are pickled into shard workers."""
    return True


def _spec(side: int):
    return VirtualArchitecture(side).synthesize(CountAggregation(_count_all))


def _fingerprint(result):
    report = result.fault_report
    return (
        result.ledger.fingerprint(),
        result.transmissions,
        result.drops,
        result.latency,
        result.events_processed,
        # exfiltrated (not root_payload): under heavy loss a round may
        # legitimately exhaust its retries, and both sides must agree on
        # that outcome too
        tuple(sorted(result.exfiltrated.items())),
        None
        if report is None
        else (
            tuple(report.injected),
            tuple(report.failovers),
            report.reroutes,
            report.frames_corrupted,
            report.frames_rejected,
        ),
    )


def boundary_cells(network, plan):
    """Cells holding a node with a radio neighbour on another shard —
    where cross-shard egress can originate (an O(edges) scan)."""
    owner = plan.shard_of_node
    return sorted(
        {
            network.cell_of(nid)
            for nid in network.nodes
            if any(owner[nbr] != owner[nid] for nbr in network.neighbor_set(nid))
        }
    )


def _boundary_kill_plan(stack, cut: int):
    """A kill_leader landing on a cell that borders a ``cut``-stripe cut."""
    plan = plan_stripes(stack.network, cut)
    cell = next(
        c
        for c in boundary_cells(stack.network, plan)
        if c in stack.binding.leaders
    )
    return FaultPlan(
        events=(FaultEvent(time=0.5, action="kill_leader", cell=cell),)
    )


def _app_fingerprint(
    side: int,
    partitions: int,
    procs: int,
    seed: int = 11,
    loss: float = 0.0,
    jitter: float = 0.0,
    wire: bool = False,
    fault: bool = False,
    n_random: int = 60,
    fault_cut: Optional[int] = None,
):
    """Fingerprint of one seeded partitioned round.

    With ``fault`` a leader on a shard-boundary cell is killed; the cell
    borders the ``fault_cut``-stripe cut (default ``max(2, partitions)``),
    so runs at different K can share one fault plan.
    """
    net = make_deployment(side=side, n_random=n_random, seed=seed)
    stack = deploy(net)
    cut = fault_cut or max(2, partitions)
    plan = _boundary_kill_plan(stack, cut) if fault else None
    result = run_partitioned_application(
        stack,
        _spec(side),
        partitions=partitions,
        procs=procs,
        loss_rate=loss,
        jitter=jitter,
        rng=np.random.default_rng(seed + 1),
        reliable=loss > 0.0 or fault,
        max_retries=8,
        wire_format=wire,
        fault_plan=plan,
        wall_timeout_s=120.0,
    )
    return _fingerprint(result)


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------


def test_plan_stripes_shape():
    net = make_deployment(side=8, seed=11)
    plan = plan_stripes(net, 4)
    assert plan.partitions == 4 and plan.side == 8
    # every node owned exactly once, by the shard of its column stripe
    owned = [nid for shard in plan.local_nodes for nid in shard]
    assert sorted(owned) == sorted(net.node_ids())
    for nid in net.node_ids():
        col = net.cell_of(nid)[0]
        assert plan.shard_of_node[nid] == col * 4 // 8
    # stripe cuts exist, and every boundary cell touches a foreign shard
    cells = boundary_cells(net, plan)
    assert cells
    for cell in cells:
        assert 0 <= plan.shard_of_cell(cell) < 4


def test_plan_stripes_validation():
    net = make_deployment(side=8, seed=11)
    with pytest.raises(ValueError):
        plan_stripes(net, 3)  # 8 % 3 != 0
    with pytest.raises(ValueError):
        plan_stripes(net, 16)  # more shards than columns
    with pytest.raises(ValueError):
        plan_stripes(net, 0)


# ---------------------------------------------------------------------------
# Engine primitives the windowed driver relies on
# ---------------------------------------------------------------------------


def test_engine_run_until_lookahead_and_inject():
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0, 5.0):
        sim.schedule(t, fired.append, t)
    assert sim.next_event_time() == 1.0
    # arrival exactly == horizon is inside the window
    assert sim.run_until_lookahead(3.0) == 3
    assert fired == [1.0, 2.0, 3.0]
    assert sim.now == 3.0  # the clock stays at the last fired event
    assert sim.next_event_time() == 5.0
    # boundary injection at the current instant is legal...
    sim.inject_at(3.0, fired.append, "boundary")
    assert sim.run_until_lookahead(4.0) == 1
    assert fired[-1] == "boundary"
    # ...but injection into the past must be impossible
    with pytest.raises(ValueError):
        sim.inject_at(2.0, fired.append, "late")


def test_medium_rejects_sub_lookahead_delay():
    """The conservative bound is load-bearing: a partitioned medium must
    refuse any transmission that could arrive inside the current window."""
    net = make_deployment(side=8, seed=11)
    with pytest.raises(RuntimeError, match="lookahead"):
        run_partitioned_storm(
            net, rounds=2, partitions=2, procs=1,
            rng=np.random.default_rng(11), lookahead=999.0,
        )


# ---------------------------------------------------------------------------
# Serial == partitioned
# ---------------------------------------------------------------------------


def test_k1_byte_identical_to_legacy():
    side, seed = 8, 11
    net = make_deployment(side=side, seed=seed)
    stack = deploy(net)
    legacy = stack.run_application(
        _spec(side), loss_rate=0.1, rng=np.random.default_rng(seed + 1),
        reliable=True, max_retries=8,
    )
    net2 = make_deployment(side=side, seed=seed)
    stack2 = deploy(net2)
    via_k1 = run_partitioned_application(
        stack2, _spec(side), partitions=1, procs=1, loss_rate=0.1,
        rng=np.random.default_rng(seed + 1), reliable=True, max_retries=8,
    )
    assert _fingerprint(via_k1) == _fingerprint(legacy)


@pytest.mark.parametrize("partitions", [2, 4])
@pytest.mark.parametrize("wire", [False, True])
def test_serial_equals_worker_processes(partitions, wire):
    serial = _app_fingerprint(8, partitions, procs=1, loss=0.1, wire=wire)
    parallel = _app_fingerprint(8, partitions, procs=2, loss=0.1, wire=wire)
    assert serial == parallel


def test_boundary_cell_fault_replays_identically():
    serial = _app_fingerprint(8, 4, procs=1, loss=0.05, wire=True, fault=True)
    parallel = _app_fingerprint(8, 4, procs=2, loss=0.05, wire=True, fault=True)
    assert serial == parallel
    report = serial[-1]
    assert report is not None
    assert len(report[1]) == 1  # the boundary failover, recorded exactly once


@pytest.mark.parametrize(
    "partitions, procs, loss, wire, fault",
    [
        (2, 2, 0.0, False, False),
        (2, 2, 0.15, True, False),
        (4, 4, 0.0, False, False),
        (4, 4, 0.15, True, False),
        (4, 3, 0.15, True, False),  # K=4 multiplexed onto 3 workers
        (4, 4, 0.05, True, True),  # kill_leader on a shard-boundary cell
    ],
)
def test_dense_serial_equals_one_worker_per_shard(partitions, procs, loss, wire, fault):
    """The 7-nodes-per-cell matrix, each shard on its own worker process."""
    kwargs = dict(n_random=8 * 8 * 7, loss=loss, wire=wire, fault=fault)
    serial = _app_fingerprint(8, partitions, procs=1, **kwargs)
    assert _app_fingerprint(8, partitions, procs=procs, **kwargs) == serial
    if fault:
        assert len(serial[-1][1]) == 1  # the boundary failover, recorded once


def test_dense_lossless_k1_byte_identical_to_legacy():
    side, seed = 8, 11
    net = make_deployment(side=side, n_random=side * side * 7, seed=seed)
    legacy = deploy(net).run_application(
        _spec(side), rng=np.random.default_rng(seed + 1), max_retries=8
    )
    assert _app_fingerprint(
        side, 1, procs=1, seed=seed, n_random=side * side * 7
    ) == _fingerprint(legacy)


def test_quiet_border_storm_terminates_under_the_watchdog():
    """Range below the stripe width: shards exchange no boundary traffic,
    and the windowed driver must still advance instead of deadlocking."""
    quiet = make_deployment(side=8, n_random=8 * 8 * 7, range_cells=0.9, seed=11)
    serial = run_partitioned_storm(
        quiet, rounds=4, partitions=1, rng=np.random.default_rng(11)
    )
    parallel = run_partitioned_storm(
        quiet, rounds=4, partitions=4, procs=4,
        rng=np.random.default_rng(11), wall_timeout_s=60.0,
    )
    assert parallel.fingerprint == serial.fingerprint
    assert parallel.windows > 0


def test_storm_fingerprint_procs_invariant():
    """A lossy, jittered storm: the whole-world run is the reference, and
    neither the shard count nor the worker count changes its fingerprint."""
    net = make_deployment(side=8, seed=11)
    reference = run_partitioned_storm(
        net, rounds=3, partitions=1, loss_rate=0.1, jitter=0.2,
        rng=np.random.default_rng(11),
    )
    runs = [
        run_partitioned_storm(
            net, rounds=3, partitions=4, procs=procs, loss_rate=0.1,
            jitter=0.2, rng=np.random.default_rng(11),
        )
        for procs in (1, 2, 4)
    ]
    assert {r.fingerprint for r in runs} == {reference.fingerprint}
    assert reference.drops > 0
    assert runs[0].windows > 0


def test_battery_writeback_composes_with_followup_round():
    """Round 2 on a stack whose round 1 was partitioned must equal round 2
    on a stack whose round 1 was serial: drained batteries, consumed
    energy, and leader state all written back to the parent network."""
    side, seed = 8, 11

    def two_rounds(partitioned: bool):
        net = make_deployment(side=side, seed=seed)
        stack = deploy(net)
        if partitioned:
            run_partitioned_application(
                stack, _spec(side), partitions=4, procs=2,
                rng=np.random.default_rng(seed + 1),
            )
        else:
            stack.run_application(
                _spec(side), rng=np.random.default_rng(seed + 1)
            )
        second = stack.run_application(
            _spec(side), rng=np.random.default_rng(seed + 2)
        )
        return _fingerprint(second)

    assert two_rounds(partitioned=True) == two_rounds(partitioned=False)


# ---------------------------------------------------------------------------
# Shard replicas and the pickle contract
# ---------------------------------------------------------------------------


def _drain_and_kill(stack):
    net = stack.network
    first, second = net.node_ids()[:2]
    net.nodes[first].draw(5.0)
    net.nodes[second].kill()


def _move_across_cells(stack):
    net = stack.network
    nid = net.node_ids()[0]
    x, y = net.cell_of(nid)
    net.move_node(nid, net.cells.center(((x + 1) % net.cells.cells_per_side, y)))


def _repair_topology(stack):
    """Kill a node on a gateway chain, then rebuild the chain around it."""
    cell, east = (0, 0), Direction.EAST
    topo = stack.topology
    member = next(
        m for m in stack.network.members_of_cell(cell) if topo.entry(m, east) is not None
    )
    stack.network.nodes[topo.entry(member, east)].kill()
    assert topo.repair(cell, east)


def _repair_gradient(stack):
    """Kill a non-leader member, then rebuild the cell's gradient."""
    cell = (0, 0)
    leader = stack.binding.leaders[cell]
    victim = next(m for m in stack.network.members_of_cell(cell) if m != leader)
    stack.network.nodes[victim].kill()
    stack.binding.repair_gradient(cell)


def _reassign_leader(stack):
    """What a failover takeover does to the binding."""
    cell = (0, 0)
    leader = stack.binding.leaders[cell]
    heir = next(m for m in stack.network.members_of_cell(cell) if m != leader)
    stack.binding.leaders[cell] = heir
    stack.binding.toward_leader[heir] = None


def _world_state(stack) -> bytes:
    """Every mutable part of a stack, as bytes (the setup report and cost
    model are shared, immutable leaves)."""
    return pickle.dumps((stack.network, stack.topology, stack.binding))


def _world_view(stack):
    """What a round leaves behind on a stack, compared by value (a pickle
    round trip rebuilds frozensets, whose iteration order may differ)."""
    net = stack.network
    return (
        {
            nid: (node.alive, node.consumed_energy, node.initial_energy, node.position)
            for nid, node in net.nodes.items()
        },
        {nid: (net.cell_of(nid), net.neighbors(nid, alive_only=False)) for nid in net.nodes},
        net.liveness_generation,
        stack.topology.tables,
        stack.binding.leaders,
        stack.binding.toward_leader,
    )


@pytest.mark.parametrize(
    "mutate",
    [_drain_and_kill, _move_across_cells, _repair_topology, _repair_gradient,
     _reassign_leader],
    ids=lambda fn: fn.__name__.lstrip("_"),
)
def test_replica_mutations_leave_the_original_alone(mutate):
    stack = deploy(make_deployment(side=4, seed=11))
    before = _world_state(stack)
    replica = stack.replica()
    # wired to itself the way a pickle round trip wires it
    assert replica.topology.network is replica.network
    assert replica.binding.network is replica.network
    assert _world_state(replica) == before
    mutate(replica)
    assert _world_state(replica) != before  # the mutation took effect...
    assert _world_state(stack) == before  # ...on the replica only


@pytest.mark.parametrize("partitions", [1, 4])
def test_replica_round_equals_a_pickled_copy_round(partitions):
    """Loss, jitter, wire, a boundary kill_leader and mobility: a round on
    ``stack.replica()`` and on a pickle round trip of ``stack`` agree,
    and so do the batteries and leaders written back to each."""
    side, seed = 8, 11
    stack = deploy(make_deployment(side=side, seed=seed))
    cells = [(x, y) for x in range(side) for y in range(side)]
    scenario = Scenario(
        mobility=plan_cell_hops(
            stack.network.node_ids(), cells, hops=3, at=0.6, spacing=0.1, seed=seed
        )
    )
    fault = _boundary_kill_plan(stack, 4)

    def round_on(world):
        result = run_partitioned_application(
            world, _spec(side), partitions=partitions, procs=1, loss_rate=0.1,
            jitter=0.2, rng=np.random.default_rng(seed + 1), reliable=True,
            max_retries=8, wire_format=True, fault_plan=fault,
            scenario=scenario, wall_timeout_s=120.0,
        )
        return result, _world_view(world)

    on_pickled, pickled_after = round_on(pickle.loads(pickle.dumps(stack)))
    on_replica, replica_after = round_on(stack.replica())
    assert on_replica.fingerprint() == on_pickled.fingerprint()
    assert _fingerprint(on_replica) == _fingerprint(on_pickled)
    assert replica_after == pickled_after
    assert [e[1] for e in on_replica.fault_report.injected] == ["kill_leader"]
    assert on_replica.fault_report.failovers
    assert len(on_replica.scenario_report.relocations) == 3


@pytest.mark.parametrize("procs", [1, 2])
def test_unpicklable_spec_is_refused_in_process_too(procs):
    side = 8
    stack = deploy(make_deployment(side=side, seed=11))
    spec = VirtualArchitecture(side).synthesize(CountAggregation(lambda cell: True))
    with pytest.raises(TypeError, match="every ingredient must pickle"):
        run_partitioned_application(stack, spec, partitions=4, procs=procs)


# ---------------------------------------------------------------------------
# Nested parallelism
# ---------------------------------------------------------------------------


def test_effective_procs_clamps_pool_not_shards(monkeypatch):
    monkeypatch.setenv(SWEEP_WORKERS_ENV, str(8 * (os.cpu_count() or 1)))
    budget = effective_procs(4)
    assert budget.procs == 1 and budget.requested == 4 and budget.clamped
    # explicit procs is an operator override of the cpu budget
    assert effective_procs(4, procs=3).procs == 3
    # but never more workers than shards
    assert effective_procs(2, procs=64).procs == 2
    monkeypatch.delenv(SWEEP_WORKERS_ENV)
    assert effective_procs(1).procs == 1


def _daemon_budget(_arg=None) -> int:
    return effective_procs(4, procs=4).procs


def test_daemonic_callers_are_pinned_to_one_in_process_worker():
    import multiprocessing as mp

    pool = mp.get_context("fork").Pool(1)
    try:
        assert pool.apply(_daemon_budget) == 1
    finally:
        pool.terminate()
        pool.join()


def test_partitioned_storm_speedup_on_granted_workers():
    """The headline perf claim on real cores: one side-32 storm, serial vs
    4 shard workers (``partition_storm`` asserts their fingerprints match).
    The target holds only where the 4-way pool is granted on >= 4 CPUs."""
    from repro.analyze.regression import SPEEDUP_TARGET
    from repro.sweep.workloads import WORKLOADS

    if effective_procs(4).procs < 4 or (os.cpu_count() or 1) < 4:
        pytest.skip("the speedup target needs 4 granted workers on >= 4 CPUs")
    row = WORKLOADS["partition_storm"](
        {"side": 32, "rounds": 6, "partitions": 4}, seed=11
    ).metrics
    if row["workers"] < 4:
        pytest.skip(f"only {row['workers']} workers granted")
    assert row["speedup"] >= SPEEDUP_TARGET, (
        f"partitioned storm only {row['speedup']:.2f}x on {row['workers']} "
        f"workers (target {SPEEDUP_TARGET}x)"
    )


def test_default_lookahead_positive():
    from repro.core import UniformCostModel

    assert default_lookahead(UniformCostModel(), None) > 0.0


# ---------------------------------------------------------------------------
# The property: serial == partitioned for every seeded configuration
# ---------------------------------------------------------------------------


if HAVE_HYPOTHESIS:

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        derandomize=True,
    )
    @given(
        side=st.sampled_from([8, 16]),
        partitions=st.sampled_from([1, 2, 4]),
        loss=st.sampled_from([0.0, 0.12]),
        jitter=st.sampled_from([0.0, 0.2]),
        wire=st.booleans(),
        fault=st.booleans(),
        seed=st.integers(min_value=3, max_value=97),
    )
    @example(side=8, partitions=4, loss=0.12, jitter=0.0, wire=True,
             fault=True, seed=11)
    @example(side=16, partitions=2, loss=0.0, jitter=0.2, wire=False,
             fault=False, seed=11)
    @example(side=8, partitions=1, loss=0.12, jitter=0.0, wire=True,
             fault=False, seed=11)
    def test_property_serial_equals_partitioned(
        side, partitions, loss, jitter, wire, fault, seed
    ):
        # one fault plan for every K: the kill lands on a boundary cell of
        # the max(2, K)-stripe cut whichever K runs it
        kwargs = dict(seed=seed, loss=loss, jitter=jitter, wire=wire,
                      fault=fault, fault_cut=max(2, partitions))
        serial = _app_fingerprint(side, partitions, procs=1, **kwargs)
        parallel = _app_fingerprint(side, partitions, procs=2, **kwargs)
        assert serial == parallel
        whole_world = _app_fingerprint(side, 1, procs=1, **kwargs)
        assert serial == whole_world

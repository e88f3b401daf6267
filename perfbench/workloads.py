"""The three workloads: seeded inputs in, one checked pass out.

A pass drives only the program's public entry points (``deploy``,
``VirtualArchitecture.synthesize``, ``DeployedStack.run_application``,
``QueryEngine.serve``).  The benchmark generates every input itself from
the seed — node positions, query arrivals, field-update targets — so the
program receives data, never a seed of the benchmark's.

Each pass times two phases on the host clock: ``setup`` (seed inputs to a
ready stack or engine) and ``run`` (the measured phase).  The run phase
is timed in units that every pass repeats exactly: one counting round,
or one chunk of the serve stream.  Correctness checks run after the
timers stop.  ``stats`` holds the deterministic
statistics of the pass (virtual times, transmissions, events, energy,
hit rate, program fingerprints); equal seeds must give equal stats.

``build_network`` and ``deploy`` are looked up on their modules at call
time so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import repro.deployment
import repro.runtime
from repro.core import CountAggregation, VirtualArchitecture
from repro.core.analysis import estimate_quadtree
from repro.deployment import CellGrid, Terrain
from repro.serve import Arrival, QueryEngine, ServeConfig, TenantPolicy

from tracing import NullTracer

TERRAIN_SIDE = 100.0
NODES_PER_CELL = 7
RANGE_CELLS = 2.3

#: Workload sizes.  Shapes follow the workload descriptions in README.md.
DEPLOY_SIDE = 8
DEPLOY_RUN_REPEATS = 5
SERVE_SIDE = 8
SERVE_STORAGE_LEVEL = 1
#: Level-k leaders each store the count of a 2^k x 2^k block of cells.
SERVE_STORAGE_CELLS = (SERVE_SIDE >> SERVE_STORAGE_LEVEL) ** 2
SERVE_QUERIES = 10_000
SERVE_MEAN_INTERARRIVAL_VT = 15.0
SERVE_TENANTS = 4
SERVE_WINDOW_VT = 60.0
SERVE_UPDATE_EVERY = 100
#: Tokens per tenant per admission round.  About one query per tenant
#: arrives in a window, so the buckets are spent and refilled every round
#: but never run dry: nothing is shed or deferred.
SERVE_TENANT_BUDGET = 16.0
LOSSY_SIDE = 8
LOSSY_ROUNDS = 16
LOSSY_ROUND_KW = dict(
    loss_rate=0.1,
    reliable=True,
    max_retries=8,
    wire_format=True,
    partitions=4,
    partition_procs=1,
)


@dataclass
class PassResult:
    """One pass of a workload: host timings, samples, checks, stats."""

    setup_s: float
    run_units: List[float]  # host seconds of each unit of the run phase
    transmissions: int  # every phase, set-up included
    queries: int  # answers delivered in the run phase
    query_latencies_vt: List[float]
    round_latencies_vt: List[float]
    round_energies: List[float]
    query_energy: float  # run-phase energy
    stats: Dict[str, Any]
    checks: int = 0
    failures: List[str] = field(default_factory=list)
    probe: Dict[str, float] = field(default_factory=dict)  # traced passes only
    run_repeats: int = 1  # times the run phase ran in this pass

    @property
    def run_s(self) -> float:
        return sum(self.run_units)

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)


def count_all_cells(cell: Any) -> bool:
    """Counting predicate; module-level so the partition runner can pickle it."""
    return True


# -- generated inputs ---------------------------------------------------------------


def make_positions(side: int, rng: np.random.Generator) -> List[Tuple[float, float]]:
    """``7 * side**2`` uniform positions, plus one node near the centre of
    every cell left empty (the Section 5 coverage precondition)."""
    cell = TERRAIN_SIDE / side
    points = rng.uniform(0.0, TERRAIN_SIDE, size=(NODES_PER_CELL * side * side, 2))
    index = np.minimum((points // cell).astype(int), side - 1)
    covered = np.zeros((side, side), dtype=bool)
    covered[index[:, 0], index[:, 1]] = True
    holes = np.argwhere(~covered)
    fill = (holes + 0.5) * cell + rng.uniform(-cell / 4, cell / 4, size=holes.shape)
    return [tuple(p) for p in np.vstack([points, fill]).tolist()]


def make_arrivals(side: int, rng: np.random.Generator) -> List[Arrival]:
    """The open-loop stream: Poisson arrivals in virtual time, uniform
    query cells and tenants."""
    gaps = rng.exponential(SERVE_MEAN_INTERARRIVAL_VT, size=SERVE_QUERIES)
    cells = rng.integers(0, side, size=(SERVE_QUERIES, 2))
    tenants = rng.integers(0, SERVE_TENANTS, size=SERVE_QUERIES)
    return [
        Arrival(time=t, query_cell=(int(x), int(y)), tenant=int(k))
        for t, (x, y), k in zip(np.cumsum(gaps).tolist(), cells.tolist(), tenants.tolist())
    ]


def make_updates(rng: np.random.Generator, count: int) -> List[Tuple[int, int]]:
    """``(storage-cell index, new payload)`` for each field update."""
    index = rng.integers(0, SERVE_STORAGE_CELLS, size=count)
    payload = rng.integers(1, 1000, size=count)
    return list(zip(index.tolist(), payload.tolist()))


def _build(side: int, positions: List[Tuple[float, float]]):
    cells = CellGrid(Terrain(TERRAIN_SIDE), side)
    return repro.deployment.build_network(
        positions, cells, tx_range=cells.cell_side * RANGE_CELLS
    )


# -- shared statistics --------------------------------------------------------------


def _deploy_stats(net, stack) -> Dict[str, Any]:
    emulation, binding = stack.setup.emulation, stack.setup.binding
    return {
        "deployment.nodes": len(net),
        "deployment.avg_degree": net.average_degree(),
        "emulate.tx": emulation.messages,
        "emulate.energy": emulation.energy,
        "emulate.setup_vt": emulation.setup_time,
        "bind.tx": binding.messages,
        "bind.energy": binding.energy,
        "bind.setup_vt": binding.setup_time,
    }


def _round_stats(results) -> Dict[str, Any]:
    """Counters of application rounds, summed; the model layer compares
    the median round against the §3.2 uniform cost model."""
    return {
        "app.rounds": len(results),
        "app.tx": sum(r.transmissions for r in results),
        "app.events": sum(r.events_processed for r in results),
        "app.delivered": sum(r.delivered_envelopes for r in results),
        "app.drops": sum(r.drops for r in results),
        "app.rejected_frames": sum(r.rejected_frames for r in results),
        "app.latency_vt": statistics.median(r.latency for r in results),
        "app.energy": statistics.median(r.ledger.total for r in results),
        "app.fingerprints": [r.fingerprint() for r in results],
    }


def _model_stats(side: int, rounds: Dict[str, Any]) -> Dict[str, Any]:
    model = estimate_quadtree(side)
    return {
        "model.latency_steps": model.latency_steps,
        "model.energy": model.total_energy,
        "model.latency_ratio": rounds["app.latency_vt"] / model.latency_steps,
        "model.energy_ratio": rounds["app.energy"] / model.total_energy,
    }


def _check_setup(result: PassResult, net, stack) -> None:
    problems = net.validate_protocol_preconditions()
    result.check(not problems, f"Section 5 preconditions: {problems}")
    problems = stack.topology.verify()
    result.check(not problems, f"topology.verify: {problems[:3]}")
    problems = stack.binding.verify()
    result.check(not problems, f"binding.verify: {problems[:3]}")


def _check_counts(result: PassResult, side: int, rounds) -> None:
    for i, r in enumerate(rounds):
        payloads = list(r.exfiltrated.values())
        result.check(
            payloads == [side * side],
            f"round {i}: root payload {payloads}, want [{side * side}]",
        )


# -- workloads ----------------------------------------------------------------------


def deploy_e2e(seed: int, tracer: NullTracer) -> PassResult:
    """Build -> precheck -> emulate -> bind -> synthesize -> one lossless round.

    The run phase (synthesize plus one round, about 3% of the pass) is
    repeated ``DEPLOY_RUN_REPEATS`` times on the ready stack, and its one
    unit is the fastest repeat.  A lossless round with fresh simulator
    state replays identically, which the check asserts.
    """
    side = DEPLOY_SIDE
    positions = make_positions(side, np.random.default_rng(seed))
    t0 = time.perf_counter()
    with tracer.span("bench.setup"):
        net = _build(side, positions)
        stack = repro.runtime.deploy(net)
    t1 = time.perf_counter()
    apps, run_s = [], []
    with tracer.span("bench.run"):
        for _ in range(DEPLOY_RUN_REPEATS):
            t2 = time.perf_counter()
            spec = VirtualArchitecture(side).synthesize(CountAggregation(count_all_cells))
            apps.append(stack.run_application(spec))
            run_s.append(time.perf_counter() - t2)
    with tracer.span("bench.check"):
        app = apps[0]
        rounds = _round_stats([app])
        result = PassResult(
            setup_s=t1 - t0,
            run_units=[min(run_s)],
            run_repeats=DEPLOY_RUN_REPEATS,
            transmissions=stack.setup.total_messages + app.transmissions,
            queries=1,
            query_latencies_vt=[app.latency],
            round_latencies_vt=[app.latency],
            round_energies=[app.ledger.total],
            query_energy=app.ledger.total,
            stats={**_deploy_stats(net, stack), **rounds, **_model_stats(side, rounds)},
        )
        _check_setup(result, net, stack)
        _check_counts(result, side, apps)
        result.check(
            len({a.fingerprint() for a in apps}) == 1,
            "repeated lossless rounds on one stack differ",
        )
    return result


def serve_stream(seed: int, tracer: NullTracer) -> PassResult:
    """One long-lived engine over level-2 storage: an open loop of Poisson
    arrivals in virtual time, with a field update every 100 queries."""
    side = SERVE_SIDE
    rng = np.random.default_rng(seed)
    positions = make_positions(side, rng)
    arrivals = make_arrivals(side, rng)
    chunks = [
        arrivals[i:i + SERVE_UPDATE_EVERY]
        for i in range(0, len(arrivals), SERVE_UPDATE_EVERY)
    ]
    updates = make_updates(rng, len(chunks) - 1)
    t0 = time.perf_counter()
    with tracer.span("bench.setup"):
        net = _build(side, positions)
        stack = repro.runtime.deploy(net)
        gather_spec = VirtualArchitecture(side).synthesize(
            CountAggregation(count_all_cells), max_level=SERVE_STORAGE_LEVEL
        )
        gather = stack.run_application(gather_spec)
        policies = {k: TenantPolicy(budget=SERVE_TENANT_BUDGET)
                    for k in range(SERVE_TENANTS)}
        engine = QueryEngine(stack, storage=dict(gather.exfiltrated),
                             config=ServeConfig(tenant_policies=policies))
    t1 = time.perf_counter()
    storage = dict(gather.exfiltrated)
    storage_cells = sorted(storage)
    served = []  # (expected value, arrivals, report) per chunk
    units = []
    with tracer.span("bench.run"):
        for k, chunk in enumerate(chunks):
            t2 = time.perf_counter()
            if k:
                index, payload = updates[k - 1]
                engine.update_field(storage_cells[index], payload)
            report = engine.serve(chunk, round_interval=SERVE_WINDOW_VT, reduce_fn=sum)
            units.append(time.perf_counter() - t2)
            if k:
                storage[storage_cells[index]] = payload
            served.append((sum(storage.values()), chunk, report))
    with tracer.span("bench.check"):
        fingerprint = engine.fingerprint()
        batches = [b for _, _, report in served for b in report.batches]
        serve_tx = sum(report.transmissions for _, _, report in served)
        serve_energy = sum(report.energy for _, _, report in served)
        latencies: List[float] = []
        result = PassResult(
            setup_s=t1 - t0,
            run_units=units,
            transmissions=stack.setup.total_messages + gather.transmissions + serve_tx,
            queries=len(arrivals),
            query_latencies_vt=latencies,
            round_latencies_vt=[b.latency for b in batches],
            round_energies=[b.energy for b in batches],
            query_energy=serve_energy,
            stats={},
        )
        _check_setup(result, net, stack)
        result.check(
            len(storage_cells) == SERVE_STORAGE_CELLS
            and sum(gather.exfiltrated.values()) == side * side,
            f"gather round stored {dict(gather.exfiltrated)}",
        )
        result.check(
            engine.stats.shed == 0 and engine.stats.deferred == 0,
            f"admission shed {engine.stats.shed}, deferred {engine.stats.deferred}",
        )
        for expected, chunk, report in served:
            if len(report.outcomes) != len(chunk):
                result.check(False, f"{len(report.outcomes)} outcomes for {len(chunk)} arrivals")
                continue
            # the budgets never run dry, so nothing is shed or deferred:
            # outcomes come back in arrival order
            for arrival, o in zip(chunk, report.outcomes):
                result.check(
                    o.outcome == "ok"
                    and o.complete
                    and o.value == expected
                    and (o.query_cell, o.tenant) == (arrival.query_cell, arrival.tenant),
                    f"query {o.qid}: {o.outcome} complete={o.complete} "
                    f"value={o.value} want {expected}",
                )
                latencies.append(o.completed_at - arrival.time)
        rounds = _round_stats([gather])
        result.stats = {
            **_deploy_stats(net, stack),
            **rounds,
            "serve.queries": engine.stats.queries,
            "serve.batches": len(batches),
            "serve.cache_hit_rate": engine.stats.hit_rate,
            "serve.tx": serve_tx,
            "serve.energy": serve_energy,
            "serve.tx_per_query": serve_tx / len(arrivals),
            "serve.latency_p50_vt": quantile(latencies, 0.50),
            "serve.latency_p99_vt": quantile(latencies, 0.99),
            "serve.events": engine.sim.events_processed,
            "serve.fingerprint": fingerprint,
        }
    return result


def lossy_partitioned(seed: int, tracer: NullTracer) -> PassResult:
    """Lossy ARQ rounds on the partitioned runner, wire codec on.

    The four shards run in this process (``partition_procs=1``).  With
    two worker processes a round waits for both CPUs, and on a shared
    host that made one seed's ``run_s`` differ by 50% between two runs.
    Fingerprints do not depend on the worker count.
    """
    side = LOSSY_SIDE
    positions = make_positions(side, np.random.default_rng(seed))
    t0 = time.perf_counter()
    with tracer.span("bench.setup"):
        net = _build(side, positions)
        stack = repro.runtime.deploy(net)
        spec = VirtualArchitecture(side).synthesize(CountAggregation(count_all_cells))
    t1 = time.perf_counter()
    apps, units = [], []
    with tracer.span("bench.run"):
        for r in range(LOSSY_ROUNDS):
            loss_rng = np.random.default_rng([seed, r])
            t2 = time.perf_counter()
            apps.append(stack.run_application(spec, rng=loss_rng, **LOSSY_ROUND_KW))
            units.append(time.perf_counter() - t2)
    with tracer.span("bench.check"):
        rounds = _round_stats(apps)
        result = PassResult(
            setup_s=t1 - t0,
            run_units=units,
            transmissions=stack.setup.total_messages + rounds["app.tx"],
            queries=len(apps),
            query_latencies_vt=[a.latency for a in apps],
            round_latencies_vt=[a.latency for a in apps],
            round_energies=[a.ledger.total for a in apps],
            query_energy=sum(a.ledger.total for a in apps),
            stats={**_deploy_stats(net, stack), **rounds, **_model_stats(side, rounds)},
        )
        _check_setup(result, net, stack)
        _check_counts(result, side, apps)
    if tracer.active:
        # one extra serial round: the partitioned runner's baseline
        serial_kw = dict(LOSSY_ROUND_KW, partitions=1, partition_procs=None)
        with tracer.span("bench.serial_probe"):
            t3 = time.perf_counter()
            probe = stack.run_application(
                spec, rng=np.random.default_rng([seed, 0]), **serial_kw
            )
            t4 = time.perf_counter()
        _check_counts(result, side, [probe])
        result.probe = {
            "serial_round_s": t4 - t3,
            "partitioned_round_s": statistics.median(units),
        }
    return result


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


WORKLOADS: Dict[str, Callable[[int, NullTracer], PassResult]] = {
    "deploy_e2e": deploy_e2e,
    "serve_stream": serve_stream,
    "lossy_partitioned": lossy_partitioned,
}

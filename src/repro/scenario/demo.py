"""The reference full-composition scenario behind ``python -m repro scenario``.

A small-but-real deployment (4x4 cells, ~140 nodes) under log-normal
shadowing, mobility, a pursuit adversary and duty-cycled sources, plus
the one-round runner that drives it serially or space-partitioned.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .attacker import Attacker
from .link import LogNormalShadowing
from .mobility import plan_cell_hops
from .sources import SourcePeriodModel
from .spec import Scenario

SIDE = 4
SEED = 11


def _count_all(cell: Any) -> bool:
    """Module-level predicate: the program spec is pickled into shards."""
    return True


def demo_network(seed: int = SEED, side: int = SIDE):
    """The covered ~140-node deployment every demo round runs on."""
    from ..deployment import covered_network

    return covered_network(side, 140, seed)


def demo_scenario(seed: int = SEED, side: int = SIDE) -> Scenario:
    """The reference full-composition scenario."""
    net = demo_network(seed, side)
    cells = [(x, y) for x in range(side) for y in range(side)]
    return Scenario(
        link=LogNormalShadowing(sigma=3.0, seed=seed),
        mobility=plan_cell_hops(
            sorted(net.node_ids()), cells, hops=5, at=0.6, spacing=0.1, seed=seed
        ),
        attacker=Attacker(start_cell=(0, 0), source_cells=((side - 1, side - 1),)),
        sources=SourcePeriodModel(
            cells=((side - 1, side - 1), (1, 2)),
            period=1.0,
            first=0.4,
            count=2,
            dst_cell=(0, 0),
        ),
    )


def demo_round(
    scenario: Any,
    partitions: int = 0,
    procs: int = 1,
    wire: bool = False,
    plan: Any = None,
):
    """One seeded reliable round on a fresh stack; ``partitions=0`` is the
    single-simulator path."""
    from ..core import CountAggregation, VirtualArchitecture
    from ..partition.runner import run_partitioned_application
    from ..runtime import deploy

    stack = deploy(demo_network())
    spec = VirtualArchitecture(SIDE).synthesize(CountAggregation(_count_all))
    kwargs = dict(
        rng=np.random.default_rng(SEED + 1), reliable=True, max_retries=8,
        wire_format=wire, fault_plan=plan, scenario=scenario,
    )
    if partitions == 0:
        return stack.run_application(spec, **kwargs)
    return run_partitioned_application(
        stack, spec, partitions=partitions, procs=procs, wall_timeout_s=120.0,
        **kwargs,
    )

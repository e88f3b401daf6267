"""Unit tests for the channel counters and the stable hashes."""

from __future__ import annotations

import pytest

from repro.simulator.trace import MediumStats, stable_unit


class TestMediumStatsEdge:
    def test_fresh_stats_zeroed(self):
        stats = MediumStats()
        assert stats.transmissions == 0
        assert stats.tx_of_kind("anything") == 0
        assert stats.summary()["drops"] == 0.0

    def test_drop_accounting(self):
        stats = MediumStats()
        stats.record_drop("rt")
        stats.record_drop("rt")
        stats.record_drop("elect")
        assert stats.drops == 3
        assert stats.by_kind_drop == {"rt": 2, "elect": 1}


@pytest.mark.parametrize(
    "parts, expected",
    [
        ((), 0.6180339887498948),
        ((0,), 0.8451708262410406),
        ((1, 2, 3), 0.6599590355675999),
        ((0x5EED, 17, 2), 0.1911263903937337),
        ((7, 0xAD317, 12, 40, 3), 0.1788815565919235),
        ((-1, 2**64 + 5), 0.5589389993420047),
    ],
)
def test_stable_unit_outputs_are_pinned(parts, expected):
    """Every seeded counter draw (transport retry jitter, serve backoff,
    scenario link admission) hashes through this one function; the pinned
    values keep each of those draws where it was."""
    assert stable_unit(*parts) == expected

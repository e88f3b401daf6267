"""Simulation statistics and deterministic hashing.

:class:`MediumStats` aggregates the channel-level counters every experiment
reports (messages, data units, drops, per-protocol breakdowns);
:func:`stable_digest` and :func:`stable_unit` are the stable hashes that
fingerprints and seeded counter draws are built on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

import numpy as np


def stable_digest(obj: Any) -> str:
    """Short stable hex digest of a fingerprint-style value.

    Intended for the canonical tuples :meth:`MediumStats.fingerprint` and
    ``EnergyLedger.fingerprint`` return — nested tuples of ints, floats,
    and strings, whose ``repr`` is deterministic across processes (Python
    reprs floats as their shortest round-trip form).  The digest is what
    sweep result records carry: JSON-friendly, order-stable, and
    comparable across shards, machines, and commits.
    """
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


_MASK = (1 << 64) - 1
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U_MIX1, _U_MIX2 = np.uint64(_MIX1), np.uint64(_MIX2)
_U27, _U31 = np.uint64(27), np.uint64(31)
#: Initial chain state shared by every stable hash.
STABLE_SEED = 0x9E3779B97F4A7C15


def stable_mix(state: int, *parts: int) -> int:
    """Continue the splitmix64-style chain from a 64-bit ``state`` over
    ``parts`` (so a caller can hash a shared prefix once)."""
    x = state
    for p in parts:
        x ^= p & _MASK
        x = (x * _MIX1) & _MASK
        x ^= x >> 27
        x = (x * _MIX2) & _MASK
        x ^= x >> 31
    return x


def stable_mix_array(state: int, parts: Any) -> np.ndarray:
    """Element ``i`` is ``stable_mix(state, parts[i])`` for non-negative
    int ``parts``; uint64 products wrap mod 2**64 like the masked chain."""
    x = np.asarray(parts, dtype=np.uint64) ^ np.uint64(state)
    x *= _U_MIX1
    x ^= x >> _U27
    x *= _U_MIX2
    x ^= x >> _U31
    return x


def stable_unit(*parts: int) -> float:
    """Deterministic hash of integers to ``[0, 1)`` (splitmix64-style).

    Seeded randomness that never consumes a shared RNG stream: medium
    loss and jitter, transport retry jitter, serve retry backoff and
    scenario link admission derive their draws purely from identities
    such as ``(node, uid, attempt)``, so no draw perturbs any other.
    """
    return (stable_mix(STABLE_SEED, *parts) >> 11) / float(1 << 53)


@dataclass
class MediumStats:
    """Channel counters maintained by the wireless medium."""

    transmissions: int = 0
    deliveries: int = 0
    drops: int = 0
    data_units_sent: float = 0.0
    data_units_received: float = 0.0
    by_kind_tx: Dict[str, int] = field(default_factory=dict)
    by_kind_rx: Dict[str, int] = field(default_factory=dict)
    by_kind_drop: Dict[str, int] = field(default_factory=dict)

    def record_tx(self, kind: str, size_units: float, deliveries: int) -> None:
        """One transmission of ``kind`` reaching ``deliveries`` receivers."""
        self.transmissions += 1
        self.data_units_sent += size_units
        self.by_kind_tx[kind] = self.by_kind_tx.get(kind, 0) + 1
        self.deliveries += deliveries

    def record_rx(self, kind: str, size_units: float) -> None:
        """One packet arrival."""
        self.data_units_received += size_units
        self.by_kind_rx[kind] = self.by_kind_rx.get(kind, 0) + 1

    def record_drop(self, kind: str) -> None:
        """One lost packet."""
        self.drops += 1
        self.by_kind_drop[kind] = self.by_kind_drop.get(kind, 0) + 1

    def record_drops(self, kind: str, count: int) -> None:
        """``count`` lost packets of one kind (vectorized loss draws)."""
        self.drops += count
        self.by_kind_drop[kind] = self.by_kind_drop.get(kind, 0) + count

    def merge(self, other: "MediumStats") -> None:
        """Fold another stats object into this one (shard-result merge).

        Every counter is a sum over disjoint sources — transmissions are
        counted at the sending shard, receptions at the receiving shard,
        drops at whichever shard made the loss draw — so summing the
        per-shard objects reproduces exactly the counters a whole-world
        medium would have recorded.
        """
        self.transmissions += other.transmissions
        self.deliveries += other.deliveries
        self.drops += other.drops
        self.data_units_sent += other.data_units_sent
        self.data_units_received += other.data_units_received
        for key, val in other.by_kind_tx.items():
            self.by_kind_tx[key] = self.by_kind_tx.get(key, 0) + val
        for key, val in other.by_kind_rx.items():
            self.by_kind_rx[key] = self.by_kind_rx.get(key, 0) + val
        for key, val in other.by_kind_drop.items():
            self.by_kind_drop[key] = self.by_kind_drop.get(key, 0) + val

    def tx_of_kind(self, kind: str) -> int:
        """Transmissions tagged ``kind``."""
        return self.by_kind_tx.get(kind, 0)

    def summary(self) -> Dict[str, float]:
        """Flat dictionary for benchmark rows."""
        return {
            "transmissions": float(self.transmissions),
            "deliveries": float(self.deliveries),
            "drops": float(self.drops),
            "data_units_sent": self.data_units_sent,
        }

    def fingerprint(self) -> Tuple:
        """Canonical, order-stable serialization of every counter.

        Two runs are observationally identical at the channel level iff
        their fingerprints compare equal; the determinism tests and the
        sweep workloads compare these instead of hand-rolled dicts.
        """
        return (
            self.transmissions,
            self.deliveries,
            self.drops,
            self.data_units_sent,
            self.data_units_received,
            tuple(sorted(self.by_kind_tx.items())),
            tuple(sorted(self.by_kind_rx.items())),
            tuple(sorted(self.by_kind_drop.items())),
        )

    def fingerprint_digest(self) -> str:
        """JSON-friendly digest of :meth:`fingerprint` for result records."""
        return stable_digest(self.fingerprint())

"""The simulated wireless medium.

Realizes single-hop radio communication over the unit-disk graph of a
:class:`~repro.deployment.topology.RealNetwork`:

* **broadcast** — one transmission heard by every alive one-hop neighbour
  (the radio broadcast advantage both Section 5 protocols exploit: a node
  "broadcasts its own (small) routing table to all its neighbors");
* **unicast** — addressed to a single neighbour; other neighbours still
  overhear the channel but the medium charges only the addressee's radio
  (an idealization noted in DESIGN.md).

Per-packet latency and energy come from the active
:class:`~repro.core.cost_model.CostModel`; optional i.i.d. packet loss
and delivery jitter model the paper's *"latency of message delivery is
unpredictable in typical sensor networks and some messages might even be
dropped"*.  Both are stable hashes of the transmission's identity
(:func:`~repro.simulator.trace.stable_unit`), not draws from a stream.
Energy is both drawn from each :class:`SensorNode` battery and recorded in
an :class:`EnergyLedger` keyed by node id.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from itertools import compress
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.cost_model import CostModel, EnergyLedger, UniformCostModel
from ..deployment.topology import RealNetwork
from .engine import Simulator
from .trace import STABLE_SEED, MediumStats, stable_mix, stable_mix_array

#: Purpose tags of the two stable draws a delivery can take.
_LOSS = 1
_JITTER = 2
#: A virtual time's IEEE-754 bits key its draws.
_F64 = struct.Struct("<d")
_U11 = np.uint64(11)


def run_key(rng: "np.random.Generator | int | None", loss_rate: float, jitter: float) -> int:
    """The 64-bit key a medium's loss and jitter draws hash under.

    An int seed is the key itself; a ``Generator`` (or anything
    ``np.random.default_rng`` accepts) gives one ``integers`` draw.  It
    is read only when a draw can happen, so a generator shared with
    later work advances the same whether or not a lossless medium was
    built from it.
    """
    if loss_rate == 0.0 and jitter == 0.0:
        return 0
    if isinstance(rng, (int, np.integer)):
        return int(rng) & ((1 << 64) - 1)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    return int(gen.integers(0, (1 << 64) - 1, dtype=np.uint64, endpoint=True))


@dataclass(frozen=True)
class PartitionSlice:
    """A medium's view of one shard of a space-partitioned run.

    ``local`` is the set of node ids this shard owns (their processes and
    deliveries run here); ``shard_of`` maps every node in the deployment
    to its owning shard.  ``lookahead`` is the conservative bound: every
    cross-shard delivery must arrive at least this far after its
    transmission, which the medium *verifies* at egress time rather than
    assumes (DESIGN.md §12).
    """

    shard_id: int
    local: "frozenset[int]"
    shard_of: Dict[int, int]
    lookahead: float


@dataclass
class Packet:
    """One radio packet.

    ``dst`` is None for broadcasts; for unicasts it names the addressed
    neighbour.  ``kind`` tags the protocol ("rt", "elect", "mGraph", ...);
    ``payload`` is protocol-defined and treated as opaque by the medium.
    """

    src: int
    kind: str
    payload: Any
    size_units: float = 1.0
    dst: Optional[int] = None


class WirelessMedium:
    """The shared radio channel.

    Parameters
    ----------
    sim:
        The event engine.
    network:
        The deployed physical network (adjacency + node batteries).
    cost_model:
        Energy/latency functions (default: the paper's uniform model).
    loss_rate:
        Independent per-receiver drop probability in ``[0, 1)``.
    rng:
        Seed of the loss and jitter draws (see :func:`run_key`).
        Each draw hashes (run key, source, virtual time, packet kind,
        k, purpose, receiver), k numbering the source's same-kind
        transmissions at that instant: no draw depends on another.
    jitter:
        Maximum extra random delivery delay (models MAC contention);
        0 keeps delivery deterministic.
    batch_fanout:
        When True (default), broadcasts take the batched fast path in
        EVERY regime: loss and jitter hashes are vectorized over the
        receivers, and deliveries are bucketed by exact arrival time — a
        jitter-free broadcast schedules ONE delivery event that charges
        every surviving receiver, a jittered one schedules one event per
        distinct arrival time.  Observable results (:class:`MediumStats`,
        the energy ledger, handler invocation order and timestamps) are
        identical either way; only ``Simulator.events_processed`` differs.
        Set False to force the per-receiver legacy path (used by the
        equivalence tests and the perf harness).
    """

    def __init__(
        self,
        sim: Simulator,
        network: RealNetwork,
        cost_model: Optional[CostModel] = None,
        loss_rate: float = 0.0,
        rng: "np.random.Generator | int | None" = None,
        jitter: float = 0.0,
        batch_fanout: bool = True,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.sim = sim
        self.network = network
        self.cost_model = cost_model or UniformCostModel()
        self.loss_rate = loss_rate
        self.jitter = jitter
        self.batch_fanout = batch_fanout
        self._draws = loss_rate > 0.0 or jitter > 0.0
        self._key_state = stable_mix(STABLE_SEED, run_key(rng, loss_rate, jitter))
        # a draw is u = (h >> 11) / 2**53, so u >= loss_rate exactly when
        # the 64-bit hash h >= ceil(loss_rate * 2**53) << 11
        self._keep_at = np.uint64(math.ceil(loss_rate * (1 << 53)) << 11)
        self._jitter_scale = jitter / (1 << 53)
        # src -> (instant, per-kind transmission counts at that instant)
        self._tx_slots: Dict[int, Tuple[float, Dict[str, int]]] = {}
        # src -> (receivers, the same ids as uint64), see _receiver_ids
        self._id_arrays: Dict[int, Tuple[Any, np.ndarray]] = {}
        self.ledger = EnergyLedger()
        self.stats = MediumStats()
        self._handlers: Dict[int, Callable[[Packet], None]] = {}
        # (src, dst) pairs whose radio link is administratively severed
        # (fault injection); empty in normal operation so the hot paths
        # pay only a truthiness check
        self._blocked_links: "set[tuple[int, int]]" = set()
        # optional in-flight frame mangler (fault injection): called with
        # each outgoing Packet, returns the packet to actually deliver
        self.tx_transform: Optional[Callable[[Packet], Packet]] = None
        # space partitioning (repro.partition): None = whole-world medium
        self._partition: Optional[PartitionSlice] = None
        self._egress: List["tuple[int, float, int, int, Packet, tuple[int, ...]]"] = []
        self._emit_seq = 0
        # events a single-simulator run would NOT have fired: broadcast
        # buckets split across shards, plus non-owned fault firings.  The
        # merged run subtracts this so events_processed is K-invariant.
        self.partition_overhead = 0
        # scenario hooks (repro.scenario): an optional per-directed-link
        # admission gate (radio models) and a passive delivery tap the
        # pursuit adversary replays post-run.  Both default off so the
        # no-scenario hot path pays only a None check.
        self.link_gate: Optional[Any] = None
        self.delivery_log: "Optional[List[tuple[float, int, int]]]" = None
        self.tap_kinds: "frozenset[str]" = frozenset()

    # -- space partitioning (repro.partition) -------------------------------------

    def configure_partition(self, part: PartitionSlice) -> None:
        """Attach this medium to one shard of a partitioned run.

        From here on, deliveries to nodes outside ``part.local`` are not
        scheduled on the local simulator; they are buffered as egress
        records (drained at each window barrier) carrying the packet, its
        absolute arrival time, and the receiver group — the shard runner
        routes them to the owning shard, which injects them via
        :meth:`inject_boundary`.
        """
        if not self.batch_fanout:
            raise ValueError("partitioned media require batch_fanout=True")
        if part.lookahead <= 0:
            raise ValueError("lookahead must be positive")
        self._partition = part

    def drain_egress(self) -> List["tuple[int, float, int, int, Packet, tuple[int, ...]]"]:
        """Hand over (and clear) the boundary-crossing deliveries buffered
        since the last window barrier.

        Records are ``(dst_shard, arrival_time, src_shard, emit_seq,
        packet, receivers)``; ``emit_seq`` is a per-shard monotone counter
        so the receiving shard can order same-timestamp injections from
        one source deterministically.
        """
        out = self._egress
        self._egress = []
        return out

    def inject_boundary(
        self, time: float, packet: Packet, receivers: "tuple[int, ...]"
    ) -> None:
        """Schedule a boundary arrival handed over by a neighbour shard.

        ``time`` is absolute; the conservative window protocol guarantees
        ``time >= sim.now`` (arrivals land at or beyond the current window
        edge), so :meth:`Simulator.inject_at` never rejects.
        """
        if len(receivers) == 1:
            self.sim.inject_at(time, self._arrive, packet, receivers[0])
        else:
            self.sim.inject_at(time, self._arrive_many, packet, list(receivers))

    def _check_lookahead(self, delay: float) -> None:
        part = self._partition
        if part is not None and delay < part.lookahead:
            raise RuntimeError(
                f"cross-shard delivery delay {delay} beats the configured "
                f"lookahead {part.lookahead}: the conservative window "
                "protocol would miss it (lower the lookahead bound)"
            )

    def _emit(
        self,
        dst_shard: int,
        arrival: float,
        packet: Packet,
        receivers: "tuple[int, ...]",
    ) -> None:
        part = self._partition
        self._egress.append(
            (dst_shard, arrival, part.shard_id, self._emit_seq, packet, receivers)
        )
        self._emit_seq += 1

    # -- link partitioning (fault injection) --------------------------------------

    def block_link(self, a: int, b: int, symmetric: bool = True) -> None:
        """Sever the radio link ``a -> b`` (and ``b -> a`` if symmetric).

        Blocked links drop transmissions before any loss/jitter draw;
        since draws are keyed by identity, not stream position, a plan
        that partitions links changes no other delivery's draws.
        """
        self._blocked_links.add((a, b))
        if symmetric:
            self._blocked_links.add((b, a))

    def unblock_link(self, a: int, b: int, symmetric: bool = True) -> None:
        """Restore a previously blocked link (no-op if not blocked)."""
        self._blocked_links.discard((a, b))
        if symmetric:
            self._blocked_links.discard((b, a))

    def attach(self, node_id: int, handler: Callable[[Packet], None]) -> None:
        """Register the packet handler of ``node_id`` (its process)."""
        if node_id not in self.network.nodes:
            raise KeyError(f"unknown node {node_id}")
        self._handlers[node_id] = handler

    def detach(self, node_id: int) -> None:
        """Unregister a handler (process shutdown)."""
        self._handlers.pop(node_id, None)

    # -- transmission -------------------------------------------------------------

    def broadcast(
        self, src: int, kind: str, payload: Any, size_units: float = 1.0
    ) -> int:
        """One radio transmission delivered to every alive neighbour.

        Returns the number of scheduled deliveries (post-loss).  A dead
        source transmits nothing.

        Loss is one vectorized hash over the receiver ids and jitter a
        second over the survivors; each receiver's draws equal the scalar
        ones of the per-receiver path, so seeded runs are byte-for-byte
        reproducible across the fast and legacy paths.
        """
        node = self.network.node(src)
        if not node.alive:
            return 0
        self._charge_tx(src, size_units, kind)
        state = self._draw_state(src, kind) if self._draws else 0
        packet = Packet(src=src, kind=kind, payload=payload, size_units=size_units)
        if self.tx_transform is not None:
            packet = self.tx_transform(packet)
        receivers = self.network.alive_neighbors(src)
        if self._blocked_links:
            blocked = self._blocked_links
            receivers = [r for r in receivers if (src, r) not in blocked]
        gate = self.link_gate
        if gate is not None and receivers:
            # link-model admission (repro.scenario), decided per directed
            # link from its own counter hashes
            admit = gate.admit
            kept = [r for r in receivers if admit(src, r)]
            faded = len(receivers) - len(kept)
            if faded:
                self.stats.record_drops(kind, faded)
            receivers = kept
        if not receivers:
            self.stats.record_tx(kind, size_units, 0)
            return 0
        if not self.batch_fanout:
            # Legacy per-receiver path: the oracle the equivalence tests
            # hold the fast path to.
            delivered = 0
            for nbr in receivers:
                if self._deliver(packet, nbr, state):
                    delivered += 1
            self.stats.record_tx(kind, size_units, delivered)
            return delivered
        keep = None
        if self._draws:
            ids = self._receiver_ids(src, receivers)
        if self.loss_rate > 0.0:
            keep = self._hashes(state, _LOSS, ids) >= self._keep_at
            survivors = list(compress(receivers, keep.tolist()))
            dropped = len(receivers) - len(survivors)
            if dropped:
                self.stats.record_drops(kind, dropped)
        else:
            survivors = list(receivers)
        if survivors:
            extras = None
            if self.jitter > 0.0:
                hashes = self._hashes(state, _JITTER, ids)
                if keep is not None:
                    hashes = hashes[keep]  # the survivors' jitter draws
                extras = ((hashes >> _U11) * self._jitter_scale).tolist()
            delay = self.cost_model.tx_latency(size_units)
            self._fan_out(packet, survivors, delay, extras)
        self.stats.record_tx(kind, size_units, len(survivors))
        return len(survivors)

    def unicast(
        self, src: int, dst: int, kind: str, payload: Any, size_units: float = 1.0
    ) -> bool:
        """Addressed transmission to a one-hop neighbour.

        Raises :class:`ValueError` if ``dst`` is not a neighbour of
        ``src`` — multi-hop forwarding is a protocol concern
        (``repro.runtime.routing``), not a radio capability.  Returns
        whether delivery was scheduled (False = lost or dead receiver).
        """
        node = self.network.node(src)
        if not node.alive:
            return False
        if dst not in self.network.neighbor_set(src):
            raise ValueError(f"{dst} is not a one-hop neighbour of {src}")
        self._charge_tx(src, size_units, kind)
        state = self._draw_state(src, kind) if self._draws else 0
        if (self._blocked_links and (src, dst) in self._blocked_links) or (
            self.link_gate is not None and not self.link_gate.admit(src, dst)
        ):
            # partitioned link, or faded by the link model: energy is
            # spent, nothing arrives
            self.stats.record_drop(kind)
            self.stats.record_tx(kind, size_units, 0)
            return False
        packet = Packet(
            src=src, kind=kind, payload=payload, size_units=size_units, dst=dst
        )
        if self.tx_transform is not None:
            packet = self.tx_transform(packet)
        ok = self._deliver(packet, dst, state)
        self.stats.record_tx(kind, size_units, 1 if ok else 0)
        return ok

    # -- internals ---------------------------------------------------------------

    def _draw_state(self, src: int, kind: str) -> int:
        """Hash state of one transmission: (run key, src, now, kind, k).

        ``k`` numbers ``src``'s transmissions of ``kind`` at this instant,
        so a draw depends only on what the source sent and when — never on
        what else the medium carried — and the per-source state is one
        entry per node however long the medium lives.
        """
        now = self.sim.now
        slot = self._tx_slots.get(src)
        if slot is None or slot[0] != now:
            slot = self._tx_slots[src] = (now, {})
        counts = slot[1]
        k = counts.get(kind, 0)
        counts[kind] = k + 1
        time_bits = int.from_bytes(_F64.pack(now), "little")
        return stable_mix(
            self._key_state, src, time_bits, zlib.crc32(kind.encode()), k
        )

    def _receiver_ids(self, src: int, receivers: Any) -> np.ndarray:
        """``receivers`` as uint64, converted again only when the network
        hands out a new alive-neighbour tuple for ``src``."""
        cached = self._id_arrays.get(src)
        if cached is None or cached[0] is not receivers:
            cached = self._id_arrays[src] = (receivers, np.asarray(receivers, np.uint64))
        return cached[1]

    @staticmethod
    def _hashes(state: int, purpose: int, receivers: Any) -> np.ndarray:
        """Per-receiver 64-bit hashes; ``stable_unit`` maps h to
        ``(h >> 11) / 2**53``."""
        return stable_mix_array(stable_mix(state, purpose), receivers)

    def _fan_out(
        self,
        packet: Packet,
        survivors: List[int],
        delay: float,
        extras: Optional[List[float]],
    ) -> None:
        """Schedule a broadcast's deliveries, one event per arrival time.

        Survivors are grouped by exact arrival time in first-seen
        (receiver) order.  Without jitter that is ONE event charging every
        receiver; coincident jittered arrivals collapse into one
        ``_arrive_many``, which delivers in receiver order — exactly the
        (time, seq) order the per-receiver path produces.  A partitioned
        medium turns each group's remote receivers into one egress record
        per destination shard, and tallies every event that split adds
        over the whole-world medium in :attr:`partition_overhead`.
        """
        part = self._partition
        schedule = self.sim.schedule_fire_and_forget
        if extras is None:
            if part is None:
                schedule(delay, self._arrive_many, packet, survivors)
                return
            buckets: Dict[float, List[int]] = {delay: survivors}
        else:
            buckets = {}
            for nbr, extra in zip(survivors, extras):
                buckets.setdefault(delay + extra, []).append(nbr)
        if part is not None:
            self._check_lookahead(delay)
        for time, group in buckets.items():
            if part is not None:
                local_group: List[int] = []
                remote: Dict[int, List[int]] = {}
                for nbr in group:
                    if nbr in part.local:
                        local_group.append(nbr)
                    else:
                        remote.setdefault(part.shard_of[nbr], []).append(nbr)
                for dst_shard, remote_group in remote.items():
                    self._emit(dst_shard, self.sim.now + time, packet, tuple(remote_group))
                self.partition_overhead += (1 if local_group else 0) + len(remote) - 1
                group = local_group
            if len(group) == 1:
                schedule(time, self._arrive, packet, group[0])
            elif group:
                schedule(time, self._arrive_many, packet, group)

    def _charge_tx(self, src: int, size_units: float, kind: str) -> None:
        energy = self.cost_model.tx_energy(size_units)
        self.network.node(src).draw(energy)
        self.ledger.charge(src, energy, f"tx:{kind}")

    def _deliver(self, packet: Packet, receiver: int, state: int) -> bool:
        """Per-receiver delivery: unicasts, and the legacy broadcast path.

        A receiver owned by another shard gets an egress record instead
        of a local event; its draws are the same either way.
        """
        if not self.network.node(receiver).alive:
            return False
        if (
            self.loss_rate > 0.0
            and stable_mix(state, _LOSS, receiver) < int(self._keep_at)
        ):
            self.stats.record_drop(packet.kind)
            return False
        delay = self.cost_model.tx_latency(packet.size_units)
        part = self._partition
        remote = part is not None and receiver not in part.local
        if remote:
            self._check_lookahead(delay)
        if self.jitter > 0.0:
            delay += (stable_mix(state, _JITTER, receiver) >> 11) * self._jitter_scale
        if remote:
            self._emit(part.shard_of[receiver], self.sim.now + delay, packet, (receiver,))
        else:
            self.sim.schedule_fire_and_forget(delay, self._arrive, packet, receiver)
        return True

    def _arrive(self, packet: Packet, receiver: int) -> None:
        node = self.network.node(receiver)
        if not node.alive:  # died in flight
            return
        if self.tap_kinds and packet.kind in self.tap_kinds:
            # passive adversary tap (repro.scenario): record, never perturb
            self.delivery_log.append((self.sim.now, packet.src, receiver))
        energy = self.cost_model.rx_energy(packet.size_units)
        node.draw(energy)
        self.ledger.charge(receiver, energy, f"rx:{packet.kind}")
        self.stats.record_rx(packet.kind, packet.size_units)
        handler = self._handlers.get(receiver)
        if handler is not None:
            handler(packet)

    def _arrive_many(self, packet: Packet, receivers: List[int]) -> None:
        """Batched arrival: one event delivers to every receiver in order.

        Receiver order matches the per-receiver path's event order, so
        handler side effects (and anything they schedule) sequence
        identically.
        """
        for receiver in receivers:
            self._arrive(packet, receiver)

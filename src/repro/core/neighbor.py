"""Channel-ID indexed neighbor tables — the multi-radio contribution (§4.2).

The neighborhood model::

    for channel k:   B ∈ NT(A, k)  ⟺  k ∈ CS(A) ∩ CS(B)
                                      and A, B ∈ NS(k)
                                      and D(A, B) <= R(A, k)

PoEm keeps **one neighbor table per channel** (``ChannelIndexedNeighborTables``)
rather than one flat table with channel-tagged units
(``SingleTableNeighbors``).  The payoff, in the paper's own example
(Fig 6): "unless [node a] switches one of its radios to channel 1, any
change of node a won't cause the update between it and the nodes in the
neighbor table indexed by channel 1 since its radio is on channel 2" — a
scene change only touches the tables of the channels the changed node is
actually on, which "relieves the server processor of heavy load especially
when emulating dynamic large-scale multi-radio MANETs."

The indexed scheme holds that relation once: a channel's table keeps
``NS(k)`` with its positions and ranges, and its rows — built on first
read — are the very :class:`Fanout` objects the engine forwards along.
A table is never changed once built, other than by filling rows in; a
scene change swaps a new table in, so a reader on any thread holds a
consistent one and the scene event is the only invalidation there is.

Both schemes implement the same read interface and subscribe to scene
events; both count the *units touched* per update so the Fig 6 ablation
bench (``benchmarks/test_fig6_neighbor_update.py``) can quantify the claim.
A property test asserts the two schemes always agree with the scene's
ground-truth predicate.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import groupby
from typing import Optional

import numpy as np

from ..errors import UnknownNodeError
from ..models.radio import Radio
from .geometry import points_within
from .ids import ChannelId, NodeId
from .scene import Scene, SceneEvent

__all__ = [
    "UpdateStats",
    "Fanout",
    "NeighborScheme",
    "ChannelIndexedNeighborTables",
    "SingleTableNeighbors",
]


@dataclass(frozen=True, slots=True)
class Fanout:
    """Fan-out of one (sender, channel) pair: one table row, and the one
    place §3.2 Step 3 is decided (:meth:`forward`).

    ``fanout()`` hands back the identical object for as long as nothing
    the row holds has changed, so in steady state the forwarding engine
    reads it once per ingest and performs **zero** table or distance
    reconstruction:

    ``radio``
        the sender's radio on the channel (None: no such radio);
    ``targets``
        ``NT(sender, channel)`` sorted ascending (deterministic order,
        matching the engine's historical ``sorted(neighborhood)``);
    ``distances``
        ``D(sender, target)`` per target, same order, precomputed so the
        link model is evaluated over the whole neighborhood at once;
    ``index``
        target → position in ``targets`` (how a unicast finds its row
        position);
    ``neighbors``
        ``targets`` as the frozenset ``neighbors()`` hands out;
    ``plan``
        the row's link plan as plain Python values, filled in by the
        first :meth:`link_plan` call.  Its format is known to this
        class alone.
    """

    radio: Optional[Radio]
    targets: tuple[NodeId, ...]
    distances: np.ndarray
    index: dict[NodeId, int]
    neighbors: frozenset[NodeId]
    plan: Optional[tuple] = field(default=None, compare=False, repr=False)

    def link_plan(self) -> tuple:
        """``(loss, p_min, p_max, segments, keys)``: per-target loss
        probabilities, their min and max, the targets as ``(lo, hi,
        delay, bandwidth)`` segments of one delay and bandwidth, and the
        per-target ``(delay, bandwidth)`` keys.  Computed once per row,
        with one numpy pass of each link model."""
        plan = self.plan
        if plan is None:
            link, r = self.radio.link, self.distances
            loss = link.loss.loss_probability_array(r).tolist()
            keys = list(zip(link.delay.delay_array(r).tolist(),
                            link.bandwidth.bandwidth_array(r).tolist()))
            plan = (loss, min(loss, default=0.0), max(loss, default=0.0),
                    _segments(keys), keys)
            object.__setattr__(self, "plan", plan)
        return plan

    def forward(
        self,
        rng: np.random.Generator,
        at: Optional[list[int]],
        t_receipt: float,
        size_bits: int,
    ) -> tuple[tuple[NodeId, ...], list[tuple[float, tuple[NodeId, ...]]]]:
        """§3.2 Step 3 for one frame sent to the targets at ascending row
        positions ``at`` (None: the whole row).

        Returns ``(lost, runs)``: the targets the loss model drops, and
        the others as runs of consecutive targets sharing one
        ``t_forward = t_receipt + delay + size_bits / bandwidth``.  It
        draws ``rng.random(n)`` once, and only when some target's loss
        probability is neither 0 nor 1.  A target is lost when its draw
        is below its probability.  The forward time is computed once per
        plan segment; a subset (a unicast, a broadcast with quarantined
        targets) indexes the plan's per-target lists, one segment per
        target.  It is never before ``t_receipt``, since a size is
        positive, a delay non-negative and a bandwidth positive and
        finite.
        """
        p, p_min, p_max, segments, keys = self.link_plan()
        targets = self.targets
        if at is not None:
            p = [p[i] for i in at]
            p_min, p_max = (min(p), max(p)) if p else (0.0, 0.0)
            targets = tuple([targets[i] for i in at])
            segments = [(j, j + 1, *keys[i]) for j, i in enumerate(at)]
        runs: list[tuple[float, tuple[NodeId, ...]]] = []
        if p_min >= 1.0:
            return targets, runs
        u = rng.random(len(p)).tolist() if p_max > 0.0 else None
        lost: list[NodeId] = []
        for lo, hi, delay, bw in segments:
            tf = t_receipt + delay + size_bits / bw
            if u is None:
                group = targets[lo:hi]
            else:
                kept = []
                for i in range(lo, hi):
                    (lost if u[i] < p[i] else kept).append(targets[i])
                group = tuple(kept)
            if runs and runs[-1][0] == tf:
                runs[-1] = (tf, runs[-1][1] + group)
            elif group:
                runs.append((tf, group))
        return tuple(lost), runs


def _segments(keys: list) -> tuple:
    """Runs of equal ``(delay, bandwidth)`` keys as ``(lo, hi, *key)``."""
    if keys and keys.count(keys[0]) == len(keys):  # a constant link
        return ((0, len(keys), *keys[0]),)
    out, lo = [], 0
    for key, run in groupby(keys):
        hi = lo + len(list(run))
        out.append((lo, hi, *key))
        lo = hi
    return tuple(out)


_NO_RADIO = Fanout(None, (), np.empty(0, dtype=float), {}, frozenset())


@dataclass
class UpdateStats:
    """Update-cost accounting for the Fig 6 ablation.

    ``units_touched`` counts the neighbor-table units a scene event puts
    in question — the paper's measure, whether or not a row is read
    again afterwards; ``events`` counts scene events processed.  The
    indexed scheme's whole point is a smaller ``units_touched`` for the
    same event stream.

    Per channel ``k`` of the changed node: a single move, an arrival or
    a retune onto ``k`` counts ``2·(|NS(k)|−1)`` (its row and its place
    in every peer's row); a range change or a departure ``|NS(k)|−1``; a
    mobility tick that moves more than one member ``|NS(k)|²``, however
    many moved.
    """

    units_touched: int = 0
    events: int = 0

    def reset(self) -> None:
        self.units_touched = 0
        self.events = 0


class NeighborScheme(ABC):
    """Read interface shared by both schemes (and used by the engine)."""

    def __init__(self, scene: Scene) -> None:
        self.scene = scene
        self.stats = UpdateStats()
        scene.add_listener(self._on_event)
        self.rebuild()

    def detach(self) -> None:
        """Stop observing the scene (tests swap schemes on one scene)."""
        self.scene.remove_listener(self._on_event)

    def neighbors(self, node: NodeId, channel: ChannelId) -> frozenset[NodeId]:
        """``NT(node, channel)`` — empty if the node has no radio there."""
        return self.fanout(node, channel).neighbors

    @abstractmethod
    def fanout(self, node: NodeId, channel: ChannelId) -> Fanout:
        """The row of ``node`` on ``channel``, built on first read."""

    def _build_fanout(
        self,
        node: NodeId,
        channel: ChannelId,
        neighbors: Optional[frozenset[NodeId]] = None,
    ) -> Fanout:
        """The row from scratch off the scene: the reference the property
        tests hold ``fanout()`` to, and the contrast scheme's miss path
        (which passes the ``neighbors`` its flat table lists)."""
        scene = self.scene
        try:
            radio = scene.radio_on_channel(node, channel)
        except UnknownNodeError:
            radio = None
        if radio is None:
            return _NO_RADIO
        if neighbors is None:
            neighbors = frozenset(self._row(node, channel))
        targets = tuple(sorted(neighbors))
        pts = scene.positions_array(list(targets))
        pos = scene.position(node)
        dx = pts[:, 0] - pos.x
        dy = pts[:, 1] - pos.y
        distances = np.sqrt(dx * dx + dy * dy)
        index = {t: i for i, t in enumerate(targets)}
        return Fanout(radio, targets, distances, index, neighbors)

    @abstractmethod
    def rebuild(self) -> None:
        """Recompute everything from the scene (initialization / recovery)."""

    @abstractmethod
    def _on_event(self, event: SceneEvent) -> None:
        """Incremental update on one scene mutation."""

    def _row(self, node: NodeId, channel: ChannelId) -> set[NodeId]:
        """Compute ``NT(node, channel)`` from scratch (vectorized).

        Uses A's range on the channel per the paper's (asymmetric)
        predicate.
        """
        scene = self.scene
        radio = scene.radio_on_channel(node, channel)
        if radio is None:
            return set()
        members = [m for m in scene.nodes_on_channel(channel) if m != node]
        if not members:
            return set()
        pts = scene.positions_array(members)
        mask = points_within(scene.position(node), radio.range, pts)
        return {m for m, hit in zip(members, mask) if hit}


@dataclass(slots=True)
class _ChannelTable:
    """``NS(k)`` and the rows of ``NT(·, k)`` read so far, for one channel.

    Everything but ``pos`` and ``rows`` is shared with the tables a move
    derives from this one.
    """

    members: tuple[NodeId, ...]  # NS(k), ascending
    slot: dict[NodeId, int]  # member -> its index in the fields below
    radios: list[Radio]
    range2: np.ndarray  # R(A, k)², per member
    pos: np.ndarray  # (n, 2)
    rows: dict[NodeId, Fanout]

    def hears(self, senders, targets=slice(None)):
        """``D(A, B)²`` and the predicate ``D(A, B) <= R(A, k)`` for each
        sender slot (one, or a list: one result row each) × target slot."""
        x, y = self.pos[:, 0], self.pos[:, 1]
        dx = x[targets] - x[senders, None]
        dy = y[targets] - y[senders, None]
        dist2 = dx * dx + dy * dy
        return dist2, dist2 <= self.range2[senders, None]

    def row(self, i: int) -> Fanout:
        """``NT(members[i], k)`` in one vectorized pass."""
        dist2, within = self.hears(i)
        within[i] = False
        hit = np.flatnonzero(within)
        targets = tuple([self.members[j] for j in hit.tolist()])
        index = {t: j for j, t in enumerate(targets)}
        return Fanout(
            self.radios[i], targets, np.sqrt(dist2[hit]), index,
            frozenset(targets),
        )


class ChannelIndexedNeighborTables(NeighborScheme):
    """PoEm's scheme: ``tables[k].rows[A]`` is ``NT(A, k)``, as a
    :class:`Fanout`.

    A scene change only swaps the tables of the channels in the changed
    node's channel set (plus, on a retune, the channel it left): a fresh
    one (:meth:`_build`) when membership, a range, a link or a tuning
    changed, one that keeps every row the movers cannot have changed
    (:meth:`_move`) when nodes moved.
    """

    def __init__(self, scene: Scene) -> None:
        self._tables: dict[ChannelId, _ChannelTable] = {}
        # Identity of the last multi-move tick absorbed (Scene.tick_movers).
        self._absorbed_tick: Optional[dict[ChannelId, list[NodeId]]] = None
        super().__init__(scene)

    # -- reads ---------------------------------------------------------------

    def fanout(self, node: NodeId, channel: ChannelId) -> Fanout:
        table = self._tables.get(channel)
        if table is None:
            return _NO_RADIO
        fan = table.rows.get(node)
        if fan is None:
            i = table.slot.get(node)
            if i is None:
                return _NO_RADIO
            fan = table.rows[node] = table.row(i)
        return fan

    def table_for_channel(
        self, channel: ChannelId
    ) -> dict[NodeId, frozenset[NodeId]]:
        """The whole per-channel table (GUI and tests inspect this)."""
        table = self._tables.get(channel)
        members = table.members if table is not None else ()
        return {m: self.neighbors(m, channel) for m in members}

    def channels(self) -> set[ChannelId]:
        return set(self._tables)

    # -- updates: the two routines that swap a table in ------------------------

    def rebuild(self) -> None:
        self._tables = {}
        for channel in self.scene.all_channels():
            n = self._build(channel)
            self.stats.units_touched += n * n

    def _build(self, channel: ChannelId) -> int:
        """Swap in a table made from the scene; returns ``|NS(k)|``."""
        scene = self.scene
        members = tuple(sorted(scene.nodes_on_channel(channel)))
        if not members:
            self._tables.pop(channel, None)
            return 0
        radios = [scene.radio_on_channel(m, channel) for m in members]
        self._tables[channel] = _ChannelTable(
            members,
            {m: i for i, m in enumerate(members)},
            radios,
            np.array([r.range * r.range for r in radios]),
            scene.positions_array(list(members)),
            {},
        )
        return len(members)

    def _move(self, channel: ChannelId, movers: list[NodeId]) -> int:
        """Swap in the table with ``movers`` at their new positions.

        Keeps every row read so far whose sender stayed put and that no
        mover was or is within range of — no other row can differ.
        Returns ``|NS(k)|``.
        """
        old = self._tables[channel]
        at = [old.slot[m] for m in movers]
        pos = old.pos.copy()
        pos[at] = self.scene.positions_array(movers)
        new = _ChannelTable(
            old.members, old.slot, old.radios, old.range2, pos, {}
        )
        moved = set(movers)
        # list(): a reader on another thread may be filling old.rows.
        stayed = [
            (node, fan) for node, fan in list(old.rows.items())
            if node not in moved and moved.isdisjoint(fan.neighbors)
        ]
        if stayed:
            _, reached = new.hears([old.slot[n] for n, _ in stayed], at)
            new.rows.update(
                row for row, hit in zip(stayed, reached.any(axis=1)) if not hit
            )
        self._tables[channel] = new
        return len(old.members)

    def _on_event(self, event: SceneEvent) -> None:
        self.stats.events += 1
        kind, node, scene, stats = event.kind, event.node, self.scene, self.stats
        if kind == "node-moved":
            tick = scene.tick_movers
            if tick is None:
                # Only the channels the moved node is on can change.
                tick = {channel: [node] for channel in scene.channels_of(node)}
            elif tick is self._absorbed_tick:
                return
            else:
                # First event of a multi-move tick: every position is
                # final already, so absorb the whole tick here and let
                # its remaining events pass.
                self._absorbed_tick = tick
            for channel, movers in tick.items():
                n = self._move(channel, movers)
                stats.units_touched += n * n if len(movers) > 1 else 2 * (n - 1)
        elif kind in ("range-set", "link-set"):
            # R(A, k) only appears in A's own row on that radio's channel,
            # and the row holds the radio with its link; link parameters
            # put no neighbor unit in question.
            n = self._build(scene.radios(node)[event.details["radio"]].channel)
            if kind == "range-set":
                stats.units_touched += n - 1
        elif kind in ("node-added", "node-removed", "channel-set"):
            # The scene has already applied the change: a table that still
            # lists the node on a channel outside CS(node) is one it left.
            # The channels a retuned node stays on are rebuilt too — the
            # retuned radio may have been the one providing R(node, k) for
            # a channel another radio still covers.
            current = scene.channels_of(node) if node in scene else frozenset()
            for channel, table in list(self._tables.items()):
                if node in table.slot and channel not in current:
                    stats.units_touched += self._build(channel)
            for channel in current:
                stats.units_touched += 2 * (self._build(channel) - 1)
        # mobility-set / quarantine don't affect neighborhood.


class SingleTableNeighbors(NeighborScheme):
    """The contrast scheme: one flat table of channel-tagged units.

    ``units[A] == {(B, k), ...}`` meaning ``B ∈ NT(A, k)``.  Because units
    for every channel are interleaved in each node's row, *any* change to
    node ``a`` forces a scan of **all** rows to find/refresh units
    involving ``a`` — including rows whose shared channels ``a`` isn't
    even on.  That scan cost is what the paper's indexed scheme avoids.
    """

    def __init__(self, scene: Scene) -> None:
        self._units: dict[NodeId, set[tuple[NodeId, ChannelId]]] = {}
        # Rows as read, each with the scene version it was read at.
        # Flat-table reads must filter by channel tag, and no per-channel
        # index exists here to say which rows an event left alone — that
        # asymmetry is the point of the scheme — so the *global* version
        # is the key and any mutation turns every row stale.
        self._cache: dict[
            tuple[NodeId, ChannelId], tuple[int, Fanout]
        ] = {}
        super().__init__(scene)

    # -- reads ---------------------------------------------------------------

    def fanout(self, node: NodeId, channel: ChannelId) -> Fanout:
        version = self.scene.version
        hit = self._cache.get((node, channel))
        if hit is not None and hit[0] == version:
            return hit[1]
        listed = frozenset(
            b for b, k in self._units.get(node, ()) if k == channel
        )
        fan = self._build_fanout(node, channel, listed)
        self._cache[node, channel] = (version, fan)
        return fan

    def rebuild(self) -> None:
        self._units = {}
        self._cache.clear()
        for node in self.scene.node_ids():
            self._units[node] = self._full_row(node)

    def _full_row(self, node: NodeId) -> set[tuple[NodeId, ChannelId]]:
        units: set[tuple[NodeId, ChannelId]] = set()
        for channel in self.scene.channels_of(node):
            for b in self._row(node, channel):
                units.add((b, channel))
        return units

    # -- incremental updates -----------------------------------------------------

    def _on_event(self, event: SceneEvent) -> None:
        self.stats.events += 1
        kind = event.kind
        node = event.node
        if kind == "node-removed":
            self._units.pop(node, None)
            self._purge_and_refresh(node, removed=True)
            for key in [key for key in self._cache if key[0] == node]:
                del self._cache[key]  # memory hygiene
        elif kind in ("node-added", "node-moved", "range-set", "channel-set"):
            if node in self.scene:
                self._units[node] = self._full_row(node)
                self.stats.units_touched += len(self._units[node]) + 1
            self._purge_and_refresh(node, removed=False)
        # link-set / mobility-set: no neighborhood effect.

    def _purge_and_refresh(self, node: NodeId, removed: bool) -> None:
        """Scan the whole flat table for units mentioning ``node``.

        This is the scheme's inherent cost: channel tags live inside each
        row, so there is no index telling us which rows could reference
        ``node`` — every unit must be examined.
        """
        scene = self.scene
        pos = scene.position(node) if (not removed and node in scene) else None
        node_channels = (
            scene.channels_of(node) if (not removed and node in scene) else frozenset()
        )
        for other, row in self._units.items():
            if other == node:
                continue
            self.stats.units_touched += max(len(row), 1)
            stale = {(b, k) for (b, k) in row if b == node}
            row -= stale
            if pos is None:
                continue
            for k in node_channels:
                r = scene.radio_on_channel(other, k)
                if r is None:
                    continue
                at = scene.position(other)
                dx, dy = pos.x - at.x, pos.y - at.y
                if dx * dx + dy * dy <= r.range * r.range:  # as is_neighbor
                    row.add((node, k))
                self.stats.units_touched += 1

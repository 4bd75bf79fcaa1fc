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

Both schemes implement the same read interface and subscribe to scene
events; both count the *units touched* per update so the Fig 6 ablation
bench (``benchmarks/test_fig6_neighbor_update.py``) can quantify the claim.
A property test asserts the two schemes always agree with the scene's
ground-truth predicate.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
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

_EMPTY_DISTS = np.empty(0, dtype=float)
_EMPTY_FROZEN: frozenset[NodeId] = frozenset()


@dataclass(frozen=True, slots=True)
class Fanout:
    """Precomputed broadcast fan-out of one (sender, channel) pair.

    Cached against the scene's per-channel version, so in steady state
    (no mutations between packets) the forwarding engine reads this once
    per ingest and performs **zero** table or distance reconstruction:

    ``radio``
        the sender's radio on the channel (None: no such radio);
    ``targets``
        ``NT(sender, channel)`` sorted ascending (deterministic order,
        matching the engine's historical ``sorted(neighborhood)``);
    ``distances``
        ``D(sender, target)`` per target, same order, precomputed so the
        loss/forward-time math vectorizes over the whole neighborhood;
    ``index``
        target → position in ``targets`` (the unicast fast path).
    """

    radio: Optional[Radio]
    targets: tuple[NodeId, ...]
    distances: np.ndarray
    index: dict[NodeId, int]


@dataclass
class UpdateStats:
    """Update-cost accounting for the Fig 6 ablation.

    ``units_touched`` counts neighbor-table units examined or rewritten;
    ``events`` counts scene events processed.  The indexed scheme's whole
    point is a smaller ``units_touched`` for the same event stream.

    A mobility tick that moves more than one member of channel ``k`` is
    absorbed as one vectorized rebuild of that channel's table and counts
    ``|NS(k)|²`` units for it, however many members moved; a single move
    counts the incremental path's ``2·(|NS(k)|−1)``.
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
        # (node, channel) -> (channel_version, Fanout): the engine's
        # steady-state read cache (see Fanout).
        self._fanout_cache: dict[
            tuple[NodeId, ChannelId], tuple[int, Fanout]
        ] = {}
        scene.add_listener(self._on_event)
        self.rebuild()

    def detach(self) -> None:
        """Stop observing the scene (tests swap schemes on one scene)."""
        self.scene.remove_listener(self._on_event)

    def fanout(self, node: NodeId, channel: ChannelId) -> Fanout:
        """Cached (radio, targets, distances) for ``node`` on ``channel``.

        Valid while ``scene.channel_version(channel)`` is unchanged; a
        stale entry is rebuilt on the next read (never eagerly), so scene
        mutation cost stays proportional to what actually changed.
        """
        version = self.scene.channel_version(channel)
        key = (node, channel)
        hit = self._fanout_cache.get(key)
        if hit is not None and hit[0] == version:
            return hit[1]
        fan = self._build_fanout(node, channel)
        self._fanout_cache[key] = (version, fan)
        return fan

    def _build_fanout(self, node: NodeId, channel: ChannelId) -> Fanout:
        scene = self.scene
        try:
            radio = scene.radio_on_channel(node, channel)
        except UnknownNodeError:
            radio = None
        if radio is None:
            return Fanout(None, (), _EMPTY_DISTS, {})
        targets = tuple(sorted(self.neighbors(node, channel)))
        if not targets:
            return Fanout(radio, (), _EMPTY_DISTS, {})
        pts = scene.positions_array(list(targets))
        pos = scene.position(node)
        dx = pts[:, 0] - pos.x
        dy = pts[:, 1] - pos.y
        distances = np.sqrt(dx * dx + dy * dy)
        index = {t: i for i, t in enumerate(targets)}
        return Fanout(radio, targets, distances, index)

    def _prune_node(self, node: NodeId) -> None:
        """Drop a removed node's cache entries (memory hygiene)."""
        stale = [k for k in self._fanout_cache if k[0] == node]
        for k in stale:
            del self._fanout_cache[k]

    @abstractmethod
    def neighbors(self, node: NodeId, channel: ChannelId) -> frozenset[NodeId]:
        """``NT(node, channel)`` — empty if the node has no radio there."""

    @abstractmethod
    def rebuild(self) -> None:
        """Recompute everything from the scene (initialization / recovery)."""

    @abstractmethod
    def _on_event(self, event: SceneEvent) -> None:
        """Incremental update on one scene mutation."""

    # -- shared ground-truth helpers -----------------------------------------

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


class ChannelIndexedNeighborTables(NeighborScheme):
    """PoEm's scheme: ``tables[k][A] == NT(A, k)``.

    Incremental updates only touch the channels in the changed node's
    channel set (plus, on a retune, the channel it left).
    """

    def __init__(self, scene: Scene) -> None:
        self._tables: dict[ChannelId, dict[NodeId, set[NodeId]]] = {}
        # (node, channel) -> (channel_version, frozenset): steady-state
        # reads return the cached immutable row with no per-read copy.
        self._frozen: dict[
            tuple[NodeId, ChannelId], tuple[int, frozenset[NodeId]]
        ] = {}
        # Identity of the last multi-move tick absorbed (Scene.tick_movers).
        self._absorbed_tick: Optional[dict[ChannelId, list[NodeId]]] = None
        super().__init__(scene)

    # -- reads ---------------------------------------------------------------

    def neighbors(self, node: NodeId, channel: ChannelId) -> frozenset[NodeId]:
        version = self.scene.channel_version(channel)
        key = (node, channel)
        hit = self._frozen.get(key)
        if hit is not None and hit[0] == version:
            return hit[1]
        table = self._tables.get(channel)
        if table is None:
            row = _EMPTY_FROZEN
        else:
            raw = table.get(node)
            row = frozenset(raw) if raw else _EMPTY_FROZEN
        self._frozen[key] = (version, row)
        return row

    def table_for_channel(
        self, channel: ChannelId
    ) -> dict[NodeId, frozenset[NodeId]]:
        """The whole per-channel table (GUI and tests inspect this)."""
        return {
            n: frozenset(row) for n, row in self._tables.get(channel, {}).items()
        }

    def channels(self) -> set[ChannelId]:
        return set(self._tables)

    def _prune_node(self, node: NodeId) -> None:
        super()._prune_node(node)
        for k in [k for k in self._frozen if k[0] == node]:
            del self._frozen[k]

    # -- full rebuild ----------------------------------------------------------

    def rebuild(self) -> None:
        self._tables = {}
        self._frozen.clear()
        self._fanout_cache.clear()
        for channel in self.scene.all_channels():
            self._rebuild_channel(channel)

    def _rebuild_channel(self, channel: ChannelId) -> None:
        """Vectorized rebuild of one channel's table.

        O(|NS(k)|²) distance checks in numpy — the hot path when many
        nodes move at once (mobility tick).
        """
        scene = self.scene
        members = sorted(scene.nodes_on_channel(channel))
        table: dict[NodeId, set[NodeId]] = {}
        if members:
            pts = scene.positions_array(members)
            deltas = pts[:, None, :] - pts[None, :, :]
            dist2 = np.einsum("ijk,ijk->ij", deltas, deltas)
            ranges = np.array(
                [scene.radio_on_channel(m, channel).range for m in members]
            )
            within = dist2 <= (ranges[:, None] ** 2)
            np.fill_diagonal(within, False)
            for i, m in enumerate(members):
                table[m] = {members[j] for j in np.nonzero(within[i])[0]}
            self.stats.units_touched += len(members) * len(members)
        if table:
            self._tables[channel] = table
        else:
            self._tables.pop(channel, None)

    # -- incremental updates -----------------------------------------------------

    def _on_event(self, event: SceneEvent) -> None:
        self.stats.events += 1
        kind = event.kind
        node = event.node
        if kind == "node-added":
            for channel in self.scene.channels_of(node):
                self._insert(node, channel)
        elif kind == "node-removed":
            self._remove_everywhere(node)
            self._prune_node(node)
        elif kind == "node-moved":
            tick = self.scene.tick_movers
            if tick is None:
                # Only the channels the moved node is on can change.
                for channel in self.scene.channels_of(node):
                    self._refresh_node_on_channel(node, channel)
            elif tick is not self._absorbed_tick:
                # First event of a multi-move tick: every position is
                # final already, so absorb the whole tick here and let
                # its remaining events pass.
                self._absorbed_tick = tick
                for channel, movers in tick.items():
                    if len(movers) > 1:
                        self._rebuild_channel(channel)
                    else:
                        self._refresh_node_on_channel(movers[0], channel)
        elif kind == "range-set":
            # R(A, k) only appears in A's own row on that radio's channel.
            radio = self.scene.radios(node)[event.details["radio"]]
            self._refresh_own_row(node, radio.channel)
        elif kind == "channel-set":
            self._handle_retune(node, ChannelId(event.details["channel"]))
        # link-set / mobility-set don't affect neighborhood.

    def _insert(self, node: NodeId, channel: ChannelId) -> None:
        """Add ``node`` to channel ``channel``'s table, updating both sides."""
        scene = self.scene
        table = self._tables.setdefault(channel, {})
        row = self._row(node, channel)
        table[node] = set(row)
        self.stats.units_touched += max(len(scene.nodes_on_channel(channel)) - 1, 0)
        # Other members' rows: does node fall within *their* range?
        pos = scene.position(node)
        for other, other_row in table.items():
            if other == node:
                continue
            r = scene.radio_on_channel(other, channel)
            if r is not None and scene.position(other).distance_to(pos) <= r.range:
                other_row.add(node)
            else:
                other_row.discard(node)
            self.stats.units_touched += 1

    def _remove_everywhere(self, node: NodeId) -> None:
        """Remove a departed node from every table it appears in."""
        empty_channels = []
        for channel, table in self._tables.items():
            if node in table:
                del table[node]
                for row in table.values():
                    row.discard(node)
                    self.stats.units_touched += 1
            if not table:
                empty_channels.append(channel)
        for channel in empty_channels:
            del self._tables[channel]

    def _refresh_node_on_channel(self, node: NodeId, channel: ChannelId) -> None:
        """Recompute ``node``'s row and its membership in peers' rows."""
        scene = self.scene
        table = self._tables.setdefault(channel, {})
        table[node] = self._row(node, channel)
        pos = scene.position(node)
        for other, other_row in table.items():
            if other == node:
                continue
            r = scene.radio_on_channel(other, channel)
            if r is not None and scene.position(other).distance_to(pos) <= r.range:
                other_row.add(node)
            else:
                other_row.discard(node)
            self.stats.units_touched += 2  # node->other and other->node units

    def _refresh_own_row(self, node: NodeId, channel: ChannelId) -> None:
        """Range change: only NT(node, channel) can differ."""
        table = self._tables.setdefault(channel, {})
        table[node] = self._row(node, channel)
        self.stats.units_touched += max(
            len(self.scene.nodes_on_channel(channel)) - 1, 0
        )

    def _handle_retune(self, node: NodeId, new_channel: ChannelId) -> None:
        """A radio switched channels: leave the old table, join the new.

        The scene has already applied the change, so the channel the radio
        *left* is whichever table still lists the node but is no longer in
        ``CS(node)``.  Channels the node *stays* on are refreshed too: on a
        multi-radio node the retuned radio may have been the one providing
        ``R(node, k)`` for a channel another radio still covers, so the
        node's rows there can change range.
        """
        current = self.scene.channels_of(node)
        for channel in list(self._tables):
            if channel not in current and node in self._tables[channel]:
                table = self._tables[channel]
                del table[node]
                for row in table.values():
                    row.discard(node)
                    self.stats.units_touched += 1
                if not table:
                    del self._tables[channel]
        for channel in current:
            self._refresh_node_on_channel(node, channel)


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
        self._cache: dict[
            tuple[NodeId, ChannelId], tuple[int, frozenset[NodeId]]
        ] = {}
        super().__init__(scene)

    # -- reads ---------------------------------------------------------------

    def neighbors(self, node: NodeId, channel: ChannelId) -> frozenset[NodeId]:
        # Flat-table reads must filter by channel tag; cache the filtered
        # frozenset against the *global* scene version (no per-channel
        # index exists here — that asymmetry is the point of the scheme).
        version = self.scene.version
        key = (node, channel)
        hit = self._cache.get(key)
        if hit is not None and hit[0] == version:
            return hit[1]
        row = self._units.get(node)
        if not row:
            result = _EMPTY_FROZEN
        else:
            result = frozenset(b for b, k in row if k == channel)
        self._cache[key] = (version, result)
        return result

    def rebuild(self) -> None:
        self._units = {}
        self._cache.clear()
        for node in self.scene.node_ids():
            self._units[node] = self._full_row(node)

    def _prune_node(self, node: NodeId) -> None:
        super()._prune_node(node)
        for k in [k for k in self._cache if k[0] == node]:
            del self._cache[k]

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
            self._prune_node(node)
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
                if scene.position(other).distance_to(pos) <= r.range:
                    row.add((node, k))
                self.stats.units_touched += 1

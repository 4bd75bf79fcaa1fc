"""The emulation scene: the server's single consistent view of the MANET.

PoEm is centralized precisely so there is *one* scene — "the central server
offers plentiful convenience to set arbitrary scenes in real time" (§2.1)
and every client's traffic is forwarded against the same, never-stale
topology (unlike the distributed Fig 3 failure mode).

The scene holds, per VMN: its position, its radios (channel/range/link
model — possibly several: multi-radio), and optionally a mobility
trajectory.  Every operation the paper performs on the GUI maps to one
method here:

=======================================  ==================================
GUI action (paper)                        Scene method
=======================================  ==================================
drag & drop a VMN                         :meth:`Scene.move_node`
"moving out some nodes"                   :meth:`Scene.remove_node`
"switching the channel"                   :meth:`Scene.set_radio_channel`
"changing the radio range"                :meth:`Scene.set_radio_range`
"lowering link bandwidth" (attack)        :meth:`Scene.set_link_model`
configure mobility in dialog box          :meth:`Scene.set_mobility`
=======================================  ==================================

Each mutation emits a :class:`SceneEvent` to registered listeners —
neighbor tables update incrementally, the scene recorder logs the event
for post-emulation replay, and the GUI renderer refreshes.

Version
-------
:attr:`Scene.version` advances once per mutation that can affect a
neighborhood relation (add/remove/range/retune/link) and once per tick
of moves, *after* the listeners ran, so whoever reads a version has
tables that already absorbed everything up to it.  It is the sharded
cluster's replication stamp and the key of the contrast scheme's read
cache; the channel-indexed tables need no counter — the event swaps
their tables.  Reading it is lock-free.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import (
    ConfigurationError,
    SceneError,
    UnknownNodeError,
    UnknownRadioError,
)
from ..models.link import LinkModel
from ..models.mobility import Bounds, MobilityModel, Trajectory
from ..models.radio import Radio, RadioConfig, RadioState
from .geometry import Vec2, distance
from .ids import ChannelId, NodeId, RadioIndex

__all__ = [
    "SceneEvent",
    "NodeState",
    "Scene",
    "SceneListener",
    "SceneSnapshot",
    "SnapshotNode",
]


@dataclass(frozen=True, slots=True)
class SceneEvent:
    """One scene mutation, as recorded and replayed.

    ``kind`` is one of ``node-added``, ``node-removed``, ``node-moved``,
    ``channel-set``, ``range-set``, ``link-set``, ``mobility-set``,
    ``node-quarantined``, ``node-restored``.
    ``details`` carries kind-specific fields (all JSON-serializable so the
    sqlite recorder can persist them verbatim).
    """

    time: float
    kind: str
    node: NodeId
    details: dict = field(default_factory=dict)


SceneListener = Callable[[SceneEvent], None]


@dataclass(frozen=True, slots=True)
class SnapshotNode:
    """One VMN inside a :class:`SceneSnapshot` (deep-immutable)."""

    node_id: NodeId
    label: str
    x: float
    y: float
    radios: tuple[Radio, ...]
    quarantined: bool = False


@dataclass(frozen=True, slots=True)
class SceneSnapshot:
    """Immutable, version-stamped copy of a whole scene.

    This is the bootstrap unit of the sharded cluster's replication:
    the parent exports one (stamped with :attr:`Scene.version`) when the
    workers start and for every scene change that is not a node move,
    and each worker rebuilds its private :class:`Scene` from it.  Node
    moves in between reach that replica as deltas
    (:meth:`Scene.move_nodes`).  :class:`Radio` and its
    :class:`~repro.models.link.LinkModel` are frozen dataclasses of
    floats, so a snapshot shares them structurally — exporting is a
    shallow walk, not a deep copy.

    Mobility trajectories are deliberately *not* carried: the parent
    owns mobility, advances it, and the resulting moves bump the scene
    version — workers only ever see the already-moved positions.
    """

    version: int
    time: float
    nodes: tuple[SnapshotNode, ...]


class NodeState:
    """Runtime state of one VMN inside the scene (scene-private).

    Read through the scene's query methods; mutate only through the
    scene's operation methods so listeners stay consistent.
    """

    def __init__(
        self,
        node_id: NodeId,
        position: Vec2,
        radios: RadioConfig,
        label: str = "",
    ) -> None:
        self.node_id = node_id
        self.position = position
        self.radios = RadioState(radios)
        self.label = label or f"VMN{int(node_id)}"
        self.mobility: Optional[Trajectory] = None
        self.mobility_model: Optional[MobilityModel] = None
        self.quarantined = False  # stale client: topology kept, traffic dropped


def _require_finite(position: Vec2) -> None:
    """A NaN or infinite coordinate compares false with every range, so
    its node would silently be no one's neighbor: refuse it instead."""
    if not (math.isfinite(position.x) and math.isfinite(position.y)):
        raise ConfigurationError(f"position must be finite: {position}")


class Scene:
    """The mutable, observable network scene.

    Thread-safe: the real-time server mutates it from GUI/scenario threads
    while scheduling threads query it.  A single re-entrant lock keeps the
    paper's guarantee that every forwarding decision sees one consistent
    scene.  The virtual-time emulator shares this code (the lock is then
    uncontended and effectively free).
    """

    def __init__(
        self,
        bounds: Optional[Bounds] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.bounds = bounds
        self._nodes: dict[NodeId, NodeState] = {}
        self._listeners: list[SceneListener] = []
        self._lock = threading.RLock()
        self._rng = np.random.default_rng(seed)
        self._time = 0.0
        self._time_source: Optional[Callable[[], float]] = None
        self._version = 0  # see module docstring
        # Immutable snapshot of quarantined node ids, swapped wholesale on
        # quarantine/restore/remove so the engine's hot path can test
        # membership without taking the scene lock.
        self._quarantined: frozenset[NodeId] = frozenset()
        # The instant whose mobility is already applied (None: positions
        # or trajectories changed since, so the next advance re-evaluates).
        self._evaluated_at: Optional[float] = None
        # channel -> movers while a multi-move tick's event is being
        # emitted (see :attr:`tick_movers`).
        self._tick_movers: Optional[dict[ChannelId, list[NodeId]]] = None

    @property
    def version(self) -> int:
        """Mutation counter: bumps on any topology-affecting change."""
        return self._version

    def _bump(self) -> None:
        """Advance :attr:`version`; scene lock held, *after* listeners ran."""
        self._version += 1

    def bind_time_source(self, now_fn: Callable[[], float]) -> None:
        """Slave scene time to an emulation clock.

        Once bound, every mutation first advances scene time (and
        mobility) to the clock's current instant, so recorded scene
        events carry correct emulation timestamps without the owner
        having to call :meth:`advance_time` manually.
        """
        with self._lock:
            self._time_source = now_fn

    def _sync_time(self) -> None:
        if self._time_source is not None:
            t = self._time_source()
            if t > self._time:
                self.advance_time(t)

    # -- listeners ----------------------------------------------------------

    def add_listener(self, listener: SceneListener) -> None:
        """Register a mutation observer (neighbor tables, recorder, GUI)."""
        with self._lock:
            self._listeners.append(listener)

    def remove_listener(self, listener: SceneListener) -> None:
        with self._lock:
            self._listeners.remove(listener)

    def _emit(
        self,
        *events: SceneEvent,
        tick_movers: Optional[dict[ChannelId, list[NodeId]]] = None,
    ) -> None:
        """Hand ``events`` (one mutation, or one tick's moves) to every
        listener in order, over one copy of the listener list."""
        # Saved and restored, not cleared: a listener that mutates the
        # scene re-entrantly emits a plain single event inside the tick.
        outer, self._tick_movers = self._tick_movers, tick_movers
        try:
            listeners = list(self._listeners)
            for event in events:
                for listener in listeners:
                    listener(event)
        finally:
            self._tick_movers = outer

    # -- node lifecycle -----------------------------------------------------

    def add_node(
        self,
        node_id: NodeId,
        position: Vec2,
        radios: RadioConfig,
        label: str = "",
    ) -> NodeState:
        """Create a VMN (a client connecting maps to exactly one of these)."""
        _require_finite(position)
        with self._lock:
            self._sync_time()
            if node_id in self._nodes:
                raise SceneError(f"node {node_id} already exists")
            if self.bounds is not None and not self.bounds.contains(position):
                raise SceneError(
                    f"position {position} outside scene bounds {self.bounds}"
                )
            state = NodeState(node_id, position, radios, label)
            self._nodes[node_id] = state
            self._emit(
                SceneEvent(
                    self._time,
                    "node-added",
                    node_id,
                    {
                        "x": position.x,
                        "y": position.y,
                        "label": state.label,
                        "radios": [
                            {"channel": int(r.channel), "range": r.range}
                            for r in state.radios
                        ],
                    },
                )
            )
            self._bump()
            return state

    def remove_node(self, node_id: NodeId) -> None:
        """'Moving out' a node (paper's military-attack example, §2.2)."""
        with self._lock:
            self._sync_time()
            self._require(node_id)
            del self._nodes[node_id]
            if node_id in self._quarantined:
                self._quarantined = self._quarantined - {node_id}
            self._emit(SceneEvent(self._time, "node-removed", node_id))
            self._bump()

    # -- quarantine (fault-tolerance layer) -----------------------------------

    # No _bump: quarantine filtering reads the lock-free
    # quarantined_snapshot(), not the neighbor tables — the topology
    # (positions/channels) is deliberately unchanged.
    def quarantine_node(self, node_id: NodeId) -> None:  # poem: ignore[POEM003]
        """Mark a VMN stale: its topology entry survives, but the engine
        drops all traffic to/from it (``DropReason.NODE_STALE``).

        Used by the server's liveness layer for clients that stop
        answering heartbeats — a *transient* stall must not tear the
        node's routes out of every other client's table (§2.2's scene
        consistency argument applies to failures too).  Idempotent.
        """
        with self._lock:
            self._sync_time()
            state = self._require(node_id)
            if state.quarantined:
                return
            state.quarantined = True
            self._quarantined = self._quarantined | {node_id}
            self._emit(SceneEvent(self._time, "node-quarantined", node_id))

    # No _bump for the same reason as quarantine_node above.
    def restore_node(self, node_id: NodeId) -> None:  # poem: ignore[POEM003]
        """Lift a quarantine (the client came back). Idempotent."""
        with self._lock:
            self._sync_time()
            state = self._require(node_id)
            if not state.quarantined:
                return
            state.quarantined = False
            self._quarantined = self._quarantined - {node_id}
            self._emit(SceneEvent(self._time, "node-restored", node_id))

    def is_quarantined(self, node_id: NodeId) -> bool:
        with self._lock:
            state = self._nodes.get(node_id)
            return state is not None and state.quarantined

    def quarantined_nodes(self) -> set[NodeId]:
        with self._lock:
            return {n for n, st in self._nodes.items() if st.quarantined}

    def quarantined_snapshot(self) -> frozenset[NodeId]:
        """Lock-free immutable view of the quarantined set (hot path).

        The returned frozenset is swapped wholesale on every quarantine /
        restore / removal, so holding a reference never observes a
        partially updated set.  Usually empty — the engine skips all
        per-target quarantine checks when it is.
        """
        return self._quarantined

    # -- GUI-equivalent mutations --------------------------------------------

    def move_node(self, node_id: NodeId, position: Vec2) -> None:
        """Drag-and-drop: teleport a VMN to ``position``."""
        self.move_nodes([(node_id, position)])

    def move_nodes(self, moves: Sequence[tuple[NodeId, Vec2]]) -> None:
        """Teleport several VMNs as one tick.

        The batch form of :meth:`move_node` — what a shard worker applies
        a ``scene_moves`` frame through.  Listeners see it exactly like a
        mobility tick of :meth:`advance_time` (see :meth:`_apply_moves`);
        an unknown node or a non-finite position raises before anything
        moved.
        """
        for _, position in moves:
            _require_finite(position)
        with self._lock:
            self._sync_time()
            bounds = self.bounds
            staged = [
                (
                    node_id,
                    self._require(node_id),
                    position if bounds is None else bounds.apply(position),
                )
                for node_id, position in moves
            ]
            self._evaluated_at = None  # a mobile node snaps back next advance
            self._apply_moves(staged)

    def _apply_moves(
        self, staged: list[tuple[NodeId, NodeState, Vec2]]
    ) -> None:
        """Commit ``(node, state, new position)`` moves as one tick.

        Called with the scene lock held.  Every position is assigned
        before the first ``node-moved`` goes out, so listeners never
        observe a half-moved scene; more than one move is announced
        through :attr:`tick_movers`; one version bump covers the tick.
        """
        if not staged:
            return
        t = self._time
        events: list[SceneEvent] = []
        movers: dict[ChannelId, list[NodeId]] = {}
        for node_id, state, position in staged:
            state.position = position
            for radio in state.radios:
                ids = movers.setdefault(radio.channel, [])
                if not ids or ids[-1] != node_id:  # two radios, one channel
                    ids.append(node_id)
            events.append(
                SceneEvent(
                    t, "node-moved", node_id,
                    {"x": position.x, "y": position.y},
                )
            )
        self._emit(*events, tick_movers=movers if len(events) > 1 else None)
        self._bump()

    def set_radio_channel(
        self, node_id: NodeId, radio: RadioIndex, channel: ChannelId
    ) -> None:
        """Switch one radio of a VMN to another channel."""
        with self._lock:
            self._sync_time()
            state = self._require(node_id)
            try:
                state.radios.set_channel(radio, channel)
            except (ConfigurationError, IndexError) as exc:
                raise UnknownRadioError(node_id, radio) from exc
            self._emit(
                SceneEvent(
                    self._time,
                    "channel-set",
                    node_id,
                    {"radio": int(radio), "channel": int(channel)},
                )
            )
            self._bump()

    def set_radio_range(
        self, node_id: NodeId, radio: RadioIndex, range_: float
    ) -> None:
        """Shrink/grow one radio's range (Table 2 Step 2 does this)."""
        with self._lock:
            self._sync_time()
            state = self._require(node_id)
            try:
                state.radios.set_range(radio, range_)
            except ConfigurationError:
                if not 0 <= radio < len(state.radios):
                    raise UnknownRadioError(node_id, radio) from None
                raise
            self._emit(
                SceneEvent(
                    self._time,
                    "range-set",
                    node_id,
                    {"radio": int(radio), "range": range_},
                )
            )
            self._bump()

    def set_link_model(
        self, node_id: NodeId, radio: RadioIndex, link: LinkModel
    ) -> None:
        """Reconfigure a radio's link model live (e.g. lower bandwidth)."""
        with self._lock:
            self._sync_time()
            state = self._require(node_id)
            try:
                state.radios.set_link(radio, link)
            except ConfigurationError:
                raise UnknownRadioError(node_id, radio) from None
            self._emit(
                SceneEvent(
                    self._time,
                    "link-set",
                    node_id,
                    {
                        "radio": int(radio),
                        "p0": link.loss.p0,
                        "p1": link.loss.p1,
                        "d0": link.loss.d0,
                        "loss_range": link.loss.radio_range,
                        "bw_peak": link.bandwidth.peak,
                        "bw_edge": link.bandwidth.edge,
                        "delay": link.delay.base,
                    },
                )
            )
            self._bump()

    # No _bump: attaching a model does not move the node yet — the
    # first mobility tick that changes the position bumps (move_node).
    def set_mobility(  # poem: ignore[POEM003]
        self, node_id: NodeId, model: Optional[MobilityModel]
    ) -> None:
        """Attach (or clear) a mobility model; trajectory starts 'now'."""
        with self._lock:
            self._sync_time()
            state = self._require(node_id)
            state.mobility_model = model
            self._evaluated_at = None
            if model is None:
                state.mobility = None
            else:
                state.mobility = Trajectory(
                    state.position,
                    model,
                    self._rng,
                    bounds=self.bounds,
                    t0=self._time,
                )
            self._emit(
                SceneEvent(
                    self._time,
                    "mobility-set",
                    node_id,
                    {"model": type(model).__name__ if model else None},
                )
            )

    # No _bump for the same reason as set_mobility above.
    def set_trajectory(self, node_id: NodeId, trajectory) -> None:  # poem: ignore[POEM003]
        """Attach a precomputed trajectory (anything with ``position_at(t)``).

        Used by coordinated models like RPGM group members
        (:mod:`repro.models.group_mobility`), whose positions cannot be
        derived from a per-node :class:`MobilityModel` alone.
        """
        if trajectory is not None and not hasattr(trajectory, "position_at"):
            raise ConfigurationError(
                f"trajectory must expose position_at(t): {trajectory!r}"
            )
        with self._lock:
            self._sync_time()
            state = self._require(node_id)
            state.mobility_model = None
            state.mobility = trajectory
            self._evaluated_at = None
            self._emit(
                SceneEvent(
                    self._time,
                    "mobility-set",
                    node_id,
                    {
                        "model": None if trajectory is None
                        else type(trajectory).__name__
                    },
                )
            )

    # -- time / mobility stepping ---------------------------------------------

    @property
    def time(self) -> float:
        return self._time

    @property
    def tick_movers(self) -> Optional[dict[ChannelId, list[NodeId]]]:
        """Who moved, per channel, in the tick being emitted.

        Non-None only inside the listener calls of an
        :meth:`advance_time` or :meth:`move_nodes` that moved more than
        one node; a new dict per tick.  Every position of the tick is
        already assigned when the first ``node-moved`` goes out, so a
        listener may absorb the whole tick on that first event (keyed on
        the dict's identity) and skip the rest — the neighbor tables do.
        Single moves (``move_node``, a one-node tick) leave it None and
        keep the per-event path.
        """
        return self._tick_movers

    def advance_time(self, t: Optional[float] = None) -> list[NodeId]:
        """Advance scene time to ``t``, moving every mobile node.

        Returns the ids of nodes that actually moved.  The virtual stacks
        call this with their clock's instant before each forwarding
        decision; the real-time server calls it with no argument before
        each wake's ingests and on an idle tick, so positions used for
        loss/neighbor computations always reflect the configured mobility.
        With no ``t`` the bound time source (:meth:`bind_time_source`)
        is read inside the scene lock, so no mutation's
        :meth:`_sync_time` on another thread can leave scene time ahead
        of the read.

        An instant is evaluated once: a repeated call for the instant
        already applied returns ``[]`` without touching a trajectory,
        until ``move_node`` / ``set_mobility`` / ``set_trajectory``
        change what that instant looks like.  The movers are committed
        as one tick (:meth:`_apply_moves`).
        """
        with self._lock:
            if t is None:
                t = self._time_source()
            if t < self._time:
                raise SceneError(
                    f"cannot move scene time backwards ({self._time} -> {t})"
                )
            if t == self._evaluated_at:
                return []
            self._time = t
            self._evaluated_at = t
            staged = []
            for node_id, state in self._nodes.items():
                if state.mobility is None:
                    continue
                new_pos = state.mobility.position_at(t)
                if new_pos != state.position:
                    staged.append((node_id, state, new_pos))
            self._apply_moves(staged)
            return [node_id for node_id, _state, _pos in staged]

    # -- queries (the neighborhood model's primitives, §4.2) -------------------

    def _require(self, node_id: NodeId) -> NodeState:
        state = self._nodes.get(node_id)
        if state is None:
            raise UnknownNodeError(node_id)
        return state

    def __contains__(self, node_id: NodeId) -> bool:
        # Lock-free: one dict membership test is atomic.
        return node_id in self._nodes

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)

    def node_ids(self) -> list[NodeId]:
        with self._lock:
            return list(self._nodes)

    def position(self, node_id: NodeId) -> Vec2:
        with self._lock:
            return self._require(node_id).position

    def label(self, node_id: NodeId) -> str:
        with self._lock:
            return self._require(node_id).label

    def radios(self, node_id: NodeId) -> RadioState:
        with self._lock:
            return self._require(node_id).radios

    def channels_of(self, node_id: NodeId) -> frozenset[ChannelId]:
        """``CS(A)`` — the channel set of a node."""
        with self._lock:
            return self._require(node_id).radios.channels

    def nodes_on_channel(self, channel: ChannelId) -> set[NodeId]:
        """``NS(n)`` — every node with a radio tuned to ``channel``."""
        with self._lock:
            return {
                nid
                for nid, st in self._nodes.items()
                if channel in st.radios.channels
            }

    def all_channels(self) -> set[ChannelId]:
        with self._lock:
            channels: set[ChannelId] = set()
            for st in self._nodes.values():
                channels |= st.radios.channels
            return channels

    def distance_between(self, a: NodeId, b: NodeId) -> float:
        """``D(A, B)``."""
        with self._lock:
            return distance(self._require(a).position, self._require(b).position)

    def radio_on_channel(
        self, node_id: NodeId, channel: ChannelId
    ) -> Optional[Radio]:
        """Node's radio tuned to ``channel`` (None if none is)."""
        with self._lock:
            hit = self._require(node_id).radios.radio_on_channel(channel)
            return hit[1] if hit else None

    def is_neighbor(self, a: NodeId, b: NodeId, channel: ChannelId) -> bool:
        """The paper's predicate: ``B ∈ NT(A, k)``.

        Requires ``k ∈ CS(A) ∩ CS(B)`` and ``D(A,B) <= R(A,k)``.  Note the
        range is *A's* range on the channel, so neighborhood may be
        asymmetric when ranges differ (exactly what Table 2 Step 2
        exploits by shrinking only VMN1's range).
        """
        with self._lock:
            if a == b:
                return False
            sa, sb = self._require(a), self._require(b)
            hit = sa.radios.radio_on_channel(channel)
            if hit is None or sb.radios.radio_on_channel(channel) is None:
                return False
            # On squares, as the neighbor tables evaluate it, so the
            # ground truth agrees with them at the boundary.
            dx = sb.position.x - sa.position.x
            dy = sb.position.y - sa.position.y
            return dx * dx + dy * dy <= hit[1].range * hit[1].range

    def positions_array(self, node_ids: list[NodeId]) -> np.ndarray:
        """``(n, 2)`` positions for vectorized bulk recomputation."""
        with self._lock:
            return np.array(
                [self._require(n).position.as_tuple() for n in node_ids],
                dtype=float,
            ).reshape(-1, 2)

    def snapshot(self) -> dict[NodeId, dict]:
        """JSON-friendly snapshot of the whole scene (GUI/replay seed)."""
        with self._lock:
            return {
                nid: {
                    "label": st.label,
                    "x": st.position.x,
                    "y": st.position.y,
                    "radios": [
                        {"channel": int(r.channel), "range": r.range}
                        for r in st.radios
                    ],
                }
                for nid, st in self._nodes.items()
            }

    # -- immutable replication snapshots (sharded cluster) ---------------------

    def export_snapshot(self) -> SceneSnapshot:
        """Export an immutable, version-stamped copy of the scene.

        One lock acquisition, shallow walk: :class:`Radio`/link objects
        are frozen and shared structurally.  The stamp is the *current*
        :attr:`version`, so ``scene.version != last_shipped.version`` is
        the cluster's replicate-needed test — with the caveat that
        quarantine/restore deliberately do not bump the version (the
        topology is unchanged), so replication triggers on scene
        *events*, not on version compares alone.
        """
        with self._lock:
            return SceneSnapshot(
                version=self._version,
                time=self._time,
                nodes=tuple(
                    SnapshotNode(
                        node_id=nid,
                        label=st.label,
                        x=st.position.x,
                        y=st.position.y,
                        radios=tuple(st.radios),
                        quarantined=st.quarantined,
                    )
                    for nid, st in self._nodes.items()
                ),
            )

    @classmethod
    def from_snapshot(
        cls, snapshot: SceneSnapshot, *, seed: Optional[int] = None
    ) -> "Scene":
        """Rebuild a standalone scene from a replication snapshot.

        The rebuilt scene has no mobility and no bounds: it is a worker's
        replica, kept coherent by the parent's already-bounded moves
        (:meth:`move_nodes`) and replaced wholesale on the next snapshot.
        """
        scene = cls(seed=seed)
        scene._time = snapshot.time
        for node in snapshot.nodes:
            scene.add_node(
                node.node_id,
                Vec2(node.x, node.y),
                RadioConfig.of(node.radios),
                label=node.label,
            )
            if node.quarantined:
                scene.quarantine_node(node.node_id)
        return scene

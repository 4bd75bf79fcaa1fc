"""Post-emulation replay (§1, Table 1 — a feature JEmu/MobiEmu lack).

"To gain a quick and straightforward insight in the behavior of a
developed routing protocol, a GUI-based emulator that can replay the
scenario after emulation ... will be preferred."

:class:`ReplayEngine` reconstructs the run from the recording's two logs:
scene events rebuild node positions/radios at any time ``t`` (a fold of
the event stream), and packet records provide the traffic that was in
flight around ``t``.  Frames can be stepped at a fixed rate
(:meth:`ReplayEngine.frames`, what ``poem replay`` prints) or queried at
arbitrary times; the GUI module renders them as ASCII or SVG.

The reconstruction is exact: replaying a recording reproduces precisely
the scene states the emulator went through (property-tested in
``tests/core/test_replay.py``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

from ..errors import ReplayError
from .ids import NodeId
from .packet import PacketRecord
from .recording import Recorder, RunDataset, load_dataset
from .scene import SceneEvent

__all__ = ["ReplayNode", "ReplayFrame", "ReplayEngine"]


@dataclass
class ReplayNode:
    """Reconstructed state of one VMN at the frame instant."""

    node_id: NodeId
    label: str
    x: float
    y: float
    radios: list[dict]  # [{"channel": int, "range": float}, ...]
    quarantined: bool = False  # stale client at this instant (liveness layer)


@dataclass
class ReplayFrame:
    """Everything visible at one replay instant."""

    time: float
    nodes: dict[NodeId, ReplayNode] = field(default_factory=dict)
    in_flight: list[PacketRecord] = field(default_factory=list)
    recent_drops: list[PacketRecord] = field(default_factory=list)
    delivered_so_far: int = 0
    """Delivered records with ``t_delivered ≤ time``."""
    dropped_so_far: int = 0
    """Dropped records with ``t_receipt ≤ time``."""


class ReplayEngine:
    """Scrubber over a finished recording (anything ``load_dataset``
    takes), framed by the run's one extent, ``RunDataset.time_range()``.
    """

    def __init__(self, source: Union[str, Path, Recorder, RunDataset]) -> None:
        dataset = load_dataset(source)
        self._events = dataset.scene_events
        self._packets = dataset.packets
        if not self._events and not self._packets:
            raise ReplayError("recording is empty — nothing to replay")
        self.start_time, self.end_time = dataset.time_range()
        self._event_times = [e.time for e in self._events]
        # Delivered packets by forward time for the in-flight query,
        # bounded by the longest receipt-to-forward hold.
        self._in_flight = sorted(
            (p for p in self._packets
             if not p.dropped and p.t_forward is not None),
            key=lambda p: p.t_forward,
        )
        self._forward_times = [p.t_forward for p in self._in_flight]
        self._max_hold = max(
            (p.t_forward - _held_from(p) for p in self._in_flight),
            default=0.0,
        )
        self._drops = sorted(
            (p for p in self._packets if p.dropped and p.t_receipt is not None),
            key=lambda p: p.t_receipt,
        )
        self._drop_times = [p.t_receipt for p in self._drops]
        self._delivery_times = sorted(
            p.t_delivered
            for p in self._packets
            if not p.dropped and p.t_delivered is not None
        )

    # -- reconstruction ---------------------------------------------------------

    def scene_at(self, t: float) -> dict[NodeId, ReplayNode]:
        """Fold scene events up to (and including) time ``t``."""
        nodes: dict[NodeId, ReplayNode] = {}
        hi = bisect.bisect_right(self._event_times, t)
        for event in self._events[:hi]:
            self._apply(nodes, event)
        return nodes

    @staticmethod
    def _apply(nodes: dict[NodeId, ReplayNode], event: SceneEvent) -> None:
        kind, node, d = event.kind, event.node, event.details
        if kind == "node-added":
            nodes[node] = ReplayNode(
                node_id=node,
                label=d.get("label", f"VMN{int(node)}"),
                x=float(d["x"]),
                y=float(d["y"]),
                radios=[dict(r) for r in d.get("radios", [])],
            )
        elif kind == "node-removed":
            nodes.pop(node, None)
        elif kind in ("run-summary", "overload-state", "cluster-run",
                      "profile"):
            pass  # run-level markers (node is the -1 sentinel), not drawable
        elif node not in nodes:
            # Event for a node we never saw added: recording truncated.
            raise ReplayError(
                f"scene event {kind!r} for unknown node {node} — "
                "recording appears truncated"
            )
        elif kind == "node-moved":
            nodes[node].x = float(d["x"])
            nodes[node].y = float(d["y"])
        elif kind == "channel-set":
            nodes[node].radios[int(d["radio"])]["channel"] = int(d["channel"])
        elif kind == "range-set":
            nodes[node].radios[int(d["radio"])]["range"] = float(d["range"])
        elif kind == "node-quarantined":
            nodes[node].quarantined = True
        elif kind == "node-restored":
            nodes[node].quarantined = False
        # link-set / mobility-set don't change what replay draws.

    def in_flight_at(self, t: float) -> list[PacketRecord]:
        """Delivered packets whose (receipt, forward] interval spans ``t``,
        in forward-time order."""
        lo = bisect.bisect_left(self._forward_times, t)
        # Nothing held longer than _max_hold can span t; the slack only
        # absorbs the rounding of t_forward - held_from + held_from.
        hi = bisect.bisect_right(self._forward_times, t + self._max_hold + 1e-9)
        return [p for p in self._in_flight[lo:hi] if _held_from(p) <= t]

    def drops_between(self, t0: float, t1: float) -> list[PacketRecord]:
        """Dropped packets with receipt time in ``[t0, t1)``."""
        lo = bisect.bisect_left(self._drop_times, t0)
        hi = bisect.bisect_left(self._drop_times, t1)
        return self._drops[lo:hi]

    def frame_at(self, t: float, drop_window: float = 0.5) -> ReplayFrame:
        """One complete replay frame at time ``t``."""
        return ReplayFrame(
            time=t,
            nodes=self.scene_at(t),
            in_flight=self.in_flight_at(t),
            recent_drops=self.drops_between(t - drop_window, t),
            delivered_so_far=bisect.bisect_right(self._delivery_times, t),
            dropped_so_far=bisect.bisect_right(self._drop_times, t),
        )

    def frames(
        self,
        fps: float = 10.0,
        t_start: Optional[float] = None,
        t_end: Optional[float] = None,
    ) -> Iterator[ReplayFrame]:
        """Frames at ``fps`` across ``[t_start, t_end]`` (default: the
        whole recording), built lazily.  A closing frame at exactly
        ``t_end`` is added when the step misses it, so the final
        counters are always shown."""
        if fps <= 0:
            raise ReplayError(f"fps must be positive: {fps}")
        start = self.start_time if t_start is None else t_start
        end = self.end_time if t_end is None else t_end
        return map(self.frame_at, _frame_times(start, end, 1.0 / fps))

    def summary(self) -> str:
        """Whole-run statistics block (what ``poem replay`` prints first)."""
        total = len(self._packets)
        dropped = sum(1 for p in self._packets if p.dropped)
        start, end = self.start_time, self.end_time
        lines = [
            "Replay summary",
            f"  duration        : {end - start:.3f}s "
            f"({start:.3f} .. {end:.3f})",
            f"  scene events    : {len(self._events)}",
            f"  packet records  : {total}",
            f"  delivered       : {total - dropped}",
            f"  dropped         : {dropped}",
        ]
        if total:
            lines.append(f"  overall loss    : {dropped / total:.1%}")
        return "\n".join(lines)


def _held_from(p: PacketRecord) -> float:
    """When the server started holding ``p``: its receipt, else its
    forward time."""
    return p.t_receipt if p.t_receipt is not None else p.t_forward


def _frame_times(start: float, end: float, step: float) -> Iterator[float]:
    t = start
    last = None
    while t <= end + 1e-12:
        yield t
        last = t
        t += step
    if last is None or last < end - 1e-12:
        yield end

"""Terminal scene renderer — the headless stand-in for the paper's GUI.

The paper's GUI shows VMNs on a plane with their radio ranges and lets the
operator watch the topology evolve.  :func:`render_scene` draws the same
picture as monospaced text: node labels on a character grid, optional
range outlines, and a channel legend.  It accepts either a live
:class:`~repro.core.scene.Scene` or a replay frame's node dict, so the
same renderer serves both real-time observation and post-emulation
replay (Table 1's last column).  :func:`render_frame` adds the replay
scrubber's status strip — traffic in flight and running delivered /
dropped counters — above one replay frame's picture.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from ..core.replay import ReplayFrame, ReplayNode
from ..core.scene import Scene
from ..errors import ConfigurationError

__all__ = ["render_scene", "render_nodes", "render_frame"]


def render_scene(
    scene: Scene,
    *,
    width: int = 72,
    height: int = 24,
    show_ranges: bool = False,
) -> str:
    """Draw a live scene (one character cell per plane region)."""
    nodes = {
        nid: ReplayNode(
            node_id=nid,
            label=scene.label(nid),
            x=scene.position(nid).x,
            y=scene.position(nid).y,
            radios=[
                {"channel": int(r.channel), "range": r.range}
                for r in scene.radios(nid)
            ],
        )
        for nid in scene.node_ids()
    }
    return render_nodes(nodes, width=width, height=height,
                        show_ranges=show_ranges)


def render_nodes(
    nodes: Mapping[object, ReplayNode],
    *,
    width: int = 72,
    height: int = 24,
    show_ranges: bool = False,
    bounds: Optional[tuple[float, float, float, float]] = None,
) -> str:
    """Draw reconstructed nodes (replay path).

    ``bounds`` is ``(x_min, y_min, x_max, y_max)``; when omitted it is
    fitted to the nodes with a margin.  Y increases upward (math
    convention), so the grid's top row is the largest y.
    """
    if width < 8 or height < 4:
        raise ConfigurationError(f"canvas too small: {width}x{height}")
    if not nodes:
        return "(empty scene)\n"
    if bounds is None:
        xs = [n.x for n in nodes.values()]
        ys = [n.y for n in nodes.values()]
        margin_x = max((max(xs) - min(xs)) * 0.1, 10.0)
        margin_y = max((max(ys) - min(ys)) * 0.1, 10.0)
        if show_ranges:
            # Fit the range rings inside the canvas too.
            reach = max(
                (max((r["range"] for r in n.radios), default=0.0)
                 for n in nodes.values()),
                default=0.0,
            )
            margin_x = max(margin_x, reach * 1.05)
            margin_y = max(margin_y, reach * 1.05)
        bounds = (
            min(xs) - margin_x,
            min(ys) - margin_y,
            max(xs) + margin_x,
            max(ys) + margin_y,
        )
    x_min, y_min, x_max, y_max = bounds
    if x_max <= x_min or y_max <= y_min:
        raise ConfigurationError(f"degenerate bounds: {bounds}")
    sx = (width - 1) / (x_max - x_min)
    sy = (height - 1) / (y_max - y_min)

    grid = [[" "] * width for _ in range(height)]

    def plot(x: float, y: float, ch: str) -> None:
        col = round((x - x_min) * sx)
        row = height - 1 - round((y - y_min) * sy)
        if 0 <= row < height and 0 <= col < width:
            if grid[row][col] == " " or ch != ".":
                grid[row][col] = ch

    if show_ranges:
        for node in nodes.values():
            for radio in node.radios:
                r = radio["range"]
                steps = max(int(2 * math.pi * r * sx / 2), 16)
                for k in range(steps):
                    a = 2 * math.pi * k / steps
                    plot(node.x + r * math.cos(a), node.y + r * math.sin(a), ".")

    for node in sorted(nodes.values(), key=lambda n: int(n.node_id)):
        label = node.label or str(int(node.node_id))
        col = round((node.x - x_min) * sx)
        row = height - 1 - round((node.y - y_min) * sy)
        if 0 <= row < height:
            for i, ch in enumerate(label):
                if 0 <= col + i < width:
                    grid[row][col + i] = ch

    legend = ", ".join(
        f"{n.label}@({n.x:.0f},{n.y:.0f}) ch"
        + "/".join(str(r["channel"]) for r in n.radios)
        for n in sorted(nodes.values(), key=lambda n: int(n.node_id))
    )
    frame = "\n".join("".join(row) for row in grid)
    return f"{frame}\n[{legend}]\n"


def render_frame(
    frame: ReplayFrame,
    *,
    width: int = 72,
    height: int = 20,
    show_ranges: bool = False,
) -> str:
    """One step of the replay timeline: status strip + scene picture."""
    return (
        f"--- t={frame.time:8.3f}s  in-flight={len(frame.in_flight):3d}  "
        f"delivered={frame.delivered_so_far:5d}  "
        f"dropped={frame.dropped_so_far:5d} ---\n"
        + render_nodes(
            frame.nodes, width=width, height=height, show_ranges=show_ranges
        )
    )

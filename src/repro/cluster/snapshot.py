"""Scene-snapshot wire codec for the sharded cluster.

:class:`~repro.core.scene.SceneSnapshot` is the bootstrap half of the
cluster's replication: workers start from one and get another for every
scene change that is not a node move (moves travel as ``scene_moves``
deltas and never pass through here).  These helpers flatten a snapshot
to the JSON dict a ``scene_snapshot`` control frame carries and rebuild
it worker-side.  The radio/link
serialization matches the field set the ``link-set`` scene event records
(loss ``p0/p1/d0/range``, bandwidth ``peak/edge``, delay
``base/per_unit``) so the replay and cluster planes describe links the
same way.
"""

from __future__ import annotations

from typing import Any

from ..core.ids import ChannelId, NodeId
from ..core.scene import Scene, SceneSnapshot, SnapshotNode
from ..errors import ClusterError
from ..models.link import BandwidthModel, DelayModel, LinkModel, PacketLossModel
from ..models.radio import Radio

__all__ = [
    "snapshot_to_dict",
    "snapshot_from_dict",
    "build_scene",
]


def _radio_to_dict(radio: Radio) -> dict[str, Any]:
    link = radio.link
    return {
        "channel": int(radio.channel),
        "range": radio.range,
        "p0": link.loss.p0,
        "p1": link.loss.p1,
        "d0": link.loss.d0,
        "loss_range": link.loss.radio_range,
        "bw_peak": link.bandwidth.peak,
        "bw_edge": link.bandwidth.edge,
        "bw_range": link.bandwidth.radio_range,
        "delay": link.delay.base,
        "delay_per_unit": link.delay.per_unit,
    }


def _radio_from_dict(raw: dict[str, Any]) -> Radio:
    return Radio(
        channel=ChannelId(int(raw["channel"])),
        range=float(raw["range"]),
        link=LinkModel(
            loss=PacketLossModel(
                p0=float(raw["p0"]),
                p1=float(raw["p1"]),
                d0=float(raw["d0"]),
                radio_range=float(raw["loss_range"]),
            ),
            bandwidth=BandwidthModel(
                peak=float(raw["bw_peak"]),
                edge=float(raw["bw_edge"]),
                radio_range=float(raw["bw_range"]),
            ),
            delay=DelayModel(
                base=float(raw["delay"]),
                per_unit=float(raw["delay_per_unit"]),
            ),
        ),
    )


def snapshot_to_dict(snapshot: SceneSnapshot) -> dict[str, Any]:
    """Flatten a snapshot to the JSON dict a control frame ships."""
    return {
        "version": snapshot.version,
        "time": snapshot.time,
        "nodes": [
            {
                "id": int(node.node_id),
                "label": node.label,
                "x": node.x,
                "y": node.y,
                "quarantined": bool(node.quarantined),
                "radios": [_radio_to_dict(r) for r in node.radios],
            }
            for node in snapshot.nodes
        ],
    }


def snapshot_from_dict(raw: dict[str, Any]) -> SceneSnapshot:
    """Inverse of :func:`snapshot_to_dict`."""
    try:
        return SceneSnapshot(
            version=int(raw["version"]),
            time=float(raw["time"]),
            nodes=tuple(
                SnapshotNode(
                    node_id=NodeId(int(n["id"])),
                    label=str(n["label"]),
                    x=float(n["x"]),
                    y=float(n["y"]),
                    radios=tuple(
                        _radio_from_dict(r) for r in n["radios"]
                    ),
                    quarantined=bool(n.get("quarantined", False)),
                )
                for n in raw["nodes"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ClusterError(f"malformed scene snapshot: {exc}") from exc


def build_scene(raw: dict[str, Any], *, seed: int | None = None) -> Scene:
    """Decode + rebuild in one step (the worker's snapshot handler)."""
    return Scene.from_snapshot(snapshot_from_dict(raw), seed=seed)

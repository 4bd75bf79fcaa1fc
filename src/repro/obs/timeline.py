"""Chrome trace-event timeline export: the cluster, legible at a glance.

Not the replay scrubber — that is ``poem replay``
(:meth:`repro.core.replay.ReplayEngine.frames` drawn by
:func:`repro.gui.ascii_view.render_frame`), the ASCII *emulation-time*
view of a recording for terminals.  This module is the
**wall-clock machine view**: it renders pipeline spans, shard-hop IPC
stages, overload transitions, scene events, and profiler samples as
Chrome trace-event JSON, the format Perfetto (https://ui.perfetto.dev)
and ``chrome://tracing`` load directly.

Lane model (cluster runs):

* the parent process is pid 1; shard worker *w* is pid ``2 + w`` —
  every process gets its own named lane, so a 4-worker run shows five
  pid groups;
* a sampled span's stages render as ``"X"`` (complete) slices laid
  end-to-end from the span's wall-clock start: the parent keeps the
  ``ipc_encode`` stage, everything from ``ipc_queue`` (pipe dwell)
  onward lands on the owning shard's lane, and a ``shard-hop`` flow
  arrow (``"s"``/``"f"``) connects the two — the cross-process hop is
  *visible*, not inferred;
* profiler samples (:meth:`repro.obs.profiler.SamplingProfiler.
  recent_samples`) and crash-ring overload transitions are instant
  events on their own threads;
* scene events are **emulation-time** markers: their stamps are the
  virtual clock, not the machine clock, so they live on an explicitly
  labelled ``scene (emulation time)`` thread rather than pretending the
  two timebases align.  Wall-clock stamps are normalized so t=0 is the
  first sampled event; emulation stamps are near zero already.

Offline, :func:`timeline_from_dataset` rebuilds the same view from a
recording: persisted trace spans, the ``cluster-run`` event's shard
map (which is what maps spans onto worker lanes), and the ``profile``
scene event if the run recorded one.  ``poem analyze --timeline`` and
``GET /timeline`` are thin wrappers over these builders.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "PARENT_PID",
    "build_timeline",
    "timeline_from_dataset",
    "write_timeline",
]

#: pid lane of the parent/only process; shard worker ``w`` is ``2 + w``.
PARENT_PID = 1

#: Stages that run in the parent before a frame crosses the pipe.
_PARENT_STAGES = frozenset({"ipc_encode"})


def _shard_pid(shard: int) -> int:
    return 2 + int(shard)


class _Tids:
    """Integer tid allocation per (pid, thread name) + metadata events."""

    def __init__(self, events: list[dict[str, Any]]) -> None:
        self._events = events
        self._tids: dict[tuple[int, str], int] = {}
        self._pids: dict[int, str] = {}

    def pid(self, pid: int, name: str) -> int:
        if pid not in self._pids:
            self._pids[pid] = name
            self._events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": name},
                }
            )
            self._events.append(
                {
                    "name": "process_sort_index",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"sort_index": pid},
                }
            )
        return pid

    def tid(self, pid: int, name: str) -> int:
        key = (pid, name)
        tid = self._tids.get(key)
        if tid is None:
            tid = len([k for k in self._tids if k[0] == pid]) + 1
            self._tids[key] = tid
            self._events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        return tid


def _span_get(span: Any, field: str, default: Any = None) -> Any:
    if isinstance(span, Mapping):
        return span.get(field, default)
    return getattr(span, field, default)


def _scene_get(event: Any, field: str, default: Any = None) -> Any:
    if isinstance(event, Mapping):
        return event.get(field, default)
    return getattr(event, field, default)


def _normalize_shard_map(
    shard_map: Optional[Mapping[Any, Any]],
) -> dict[int, int]:
    if not shard_map:
        return {}
    out: dict[int, int] = {}
    for node, shard in shard_map.items():
        try:
            out[int(node)] = int(shard)
        except (TypeError, ValueError):
            continue
    return out


def build_timeline(
    *,
    spans: Iterable[Any] = (),
    scene_events: Iterable[Any] = (),
    samples: Iterable[Sequence[Any]] = (),
    transitions: Iterable[Mapping[str, Any]] = (),
    shard_map: Optional[Mapping[Any, Any]] = None,
    parent_role: str = "parent",
) -> dict[str, Any]:
    """Assemble one Perfetto-loadable trace dict.

    ``spans`` are :class:`~repro.obs.tracing.TraceSpan` objects or their
    ``as_dict`` forms; ``samples`` are the profiler's ``(wall t, thread,
    leaf)`` ring entries; ``transitions`` are flight-recorder rows with
    a wall-clock ``t``; ``shard_map`` (node → shard) routes each span's
    worker-side stages onto the owning shard's pid lane.
    """
    spans = list(spans)
    scene_events = list(scene_events)
    samples = [tuple(s) for s in samples]
    transitions = [dict(t) for t in transitions]
    shards = _normalize_shard_map(shard_map)

    # One wall-clock origin across every wall-stamped feed, so lanes
    # line up.  (Scene events are emulation time and stay unshifted.)
    wall_stamps = [
        float(t)
        for t in (
            [_span_get(s, "t_start", None) for s in spans]
            + [s[0] for s in samples if len(s) >= 1]
            + [t.get("t") for t in transitions]
        )
        if t is not None
    ]
    t0 = min(wall_stamps) if wall_stamps else 0.0

    def us(t: float) -> float:
        return (float(t) - t0) * 1e6

    events: list[dict[str, Any]] = []
    tids = _Tids(events)
    parent = tids.pid(PARENT_PID, parent_role)
    seen_shards: set[int] = set()

    def shard_lane(shard: int) -> int:
        pid = _shard_pid(shard)
        if shard not in seen_shards:
            seen_shards.add(shard)
            tids.pid(pid, f"shard-{shard}")
        return pid

    for span in spans:
        stages = _span_get(span, "stages", ()) or ()
        t_start = _span_get(span, "t_start", None)
        if t_start is None or not stages:
            continue
        trace_id = _span_get(span, "trace_id", 0)
        source = _span_get(span, "source", None)
        shard = shards.get(int(source)) if source is not None else None
        args = {
            "trace_id": trace_id,
            "source": source,
            "seqno": _span_get(span, "seqno"),
            "outcome": _span_get(span, "outcome"),
            "lag": _span_get(span, "lag"),
        }
        cursor = us(t_start)
        hopped = shard is None  # no shard → everything stays on parent
        pid = parent
        tid = tids.tid(parent, "pipeline")
        for name, duration in stages:
            if not hopped and name not in _PARENT_STAGES:
                # The frame crosses the pipe here: arrow from the
                # parent's encode to the worker's first stage.
                events.append(
                    {
                        "name": "shard-hop",
                        "cat": "ipc",
                        "ph": "s",
                        "id": int(trace_id),
                        "ts": cursor,
                        "pid": pid,
                        "tid": tid,
                    }
                )
                pid = shard_lane(int(shard))
                tid = tids.tid(pid, "pipeline")
                events.append(
                    {
                        "name": "shard-hop",
                        "cat": "ipc",
                        "ph": "f",
                        "bp": "e",
                        "id": int(trace_id),
                        "ts": cursor,
                        "pid": pid,
                        "tid": tid,
                    }
                )
                hopped = True
            dur = max(float(duration), 0.0) * 1e6
            events.append(
                {
                    "name": str(name),
                    "cat": "pipeline",
                    "ph": "X",
                    "ts": cursor,
                    "dur": dur,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
            cursor += dur

    for t, thread, leaf in (
        s for s in samples if len(s) >= 3
    ):
        tid = tids.tid(parent, f"samples:{thread}")
        events.append(
            {
                "name": str(leaf),
                "cat": "sample",
                "ph": "i",
                "s": "t",
                "ts": us(float(t)),
                "pid": parent,
                "tid": tid,
            }
        )

    for row in transitions:
        t = row.get("t")
        if t is None:
            continue
        tid = tids.tid(parent, "overload")
        events.append(
            {
                "name": str(row.get("event", "overload")),
                "cat": "overload",
                "ph": "i",
                "s": "p",
                "ts": us(float(t)),
                "pid": parent,
                "tid": tid,
                "args": {
                    k: v for k, v in row.items() if k not in ("t", "event")
                },
            }
        )

    for event in scene_events:
        t = _scene_get(event, "time", None)
        kind = _scene_get(event, "kind", "scene")
        if t is None:
            continue
        tid = tids.tid(parent, "scene (emulation time)")
        details = _scene_get(event, "details", {}) or {}
        events.append(
            {
                "name": str(kind),
                "cat": "scene",
                "ph": "i",
                "s": "p",
                "ts": float(t) * 1e6,  # emulation seconds, unshifted
                "pid": parent,
                "tid": tid,
                "args": {
                    "node": _scene_get(event, "node"),
                    **{
                        k: v
                        for k, v in details.items()
                        # the profile/cluster payloads are huge; keep
                        # marker args skimmable
                        if k not in ("stacks", "per_worker", "shard_map")
                    },
                },
            }
        )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.timeline",
            "wall_t0": t0,
            "spans": len(spans),
            "samples": len(samples),
        },
    }


def timeline_from_dataset(
    source: Any, *, profiler: Optional[Any] = None
) -> dict[str, Any]:
    """Build the timeline from a recording: anything
    :func:`~repro.core.recording.load_dataset` takes (offline ``poem
    analyze --timeline`` passes the dataset it already loaded; the
    console passes its live recorder).

    The ``cluster-run`` scene event's shard map, when present, is what
    puts each span's worker stages on the right shard lane.
    """
    from ..core.recording import load_dataset

    dataset = load_dataset(source)
    cluster = dataset.cluster_run or {}
    samples: list[Sequence[Any]] = []
    if profiler is not None:
        samples = list(profiler.recent_samples())
    return build_timeline(
        spans=dataset.spans,
        scene_events=dataset.scene_events,
        samples=samples,
        shard_map=cluster.get("shard_map"),
    )


def write_timeline(
    path: Union[str, Path], timeline: Mapping[str, Any]
) -> str:
    """Serialize one timeline dict to ``path`` (JSON, Perfetto-ready)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(timeline, default=str))
    return str(target)

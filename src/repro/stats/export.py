"""Export packet/scene records for external analysis tools.

The paper logs everything into SQL "for later statistics"; analysts often
want the data in pandas/R/gnuplot instead.  Two formats:

* **CSV** — one row per packet record, flat columns (``export_packets_csv``)
  and one per scene event with JSON-encoded details
  (``export_scene_csv``);
* **JSON-lines** — both logs interleaved in time order, one self-tagged
  object per line (``export_jsonl``), convenient for jq pipelines;
* **metrics JSON** — a point-in-time snapshot of a telemetry registry
  (``export_metrics_json``), the same data ``/metrics`` exposes in
  Prometheus text, for runs without a scraper attached.

The record writers take what :func:`~repro.core.recording.load_dataset`
takes and load the recording once, before the output file is opened;
``export_jsonl`` then sorts both logs in memory to interleave them.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

from ..core.recording import Recorder, RunDataset, load_dataset

__all__ = [
    "export_packets_csv",
    "export_scene_csv",
    "export_jsonl",
    "export_metrics_json",
]

Source = Union[str, Path, Recorder, RunDataset]

PACKET_FIELDS = (
    "record_id", "seqno", "source", "destination", "sender", "receiver",
    "channel", "kind", "size_bits", "t_origin", "t_receipt", "t_forward",
    "t_delivered", "drop_reason",
)


def export_packets_csv(source: Source, path: Union[str, Path]) -> int:
    """Write the packet log as CSV; returns the row count."""
    packets = load_dataset(source).packets
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PACKET_FIELDS)
        writer.writerows(
            [getattr(record, field) for field in PACKET_FIELDS]
            for record in packets
        )
    return len(packets)


def export_scene_csv(source: Source, path: Union[str, Path]) -> int:
    """Write the scene-event log as CSV (details JSON-encoded)."""
    events = load_dataset(source).scene_events
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("time", "kind", "node", "details"))
        writer.writerows(
            (event.time, event.kind, int(event.node), json.dumps(event.details))
            for event in events
        )
    return len(events)


def export_jsonl(source: Source, path: Union[str, Path]) -> int:
    """Write both logs as time-ordered JSON lines; returns line count.

    Each line is ``{"type": "packet"|"scene", "t": <sort time>, ...}``.
    Packets sort by origin stamp (falling back through receipt/forward);
    scene events by their time.
    """

    def packet_time(record) -> float:
        for stamp in (record.t_origin, record.t_receipt, record.t_forward):
            if stamp is not None:
                return stamp
        return 0.0

    dataset = load_dataset(source)
    entries: list[tuple[float, int, dict]] = []
    for record in dataset.packets:
        obj = {"type": "packet", "t": packet_time(record)}
        obj.update(
            {field: getattr(record, field) for field in PACKET_FIELDS}
        )
        entries.append((obj["t"], 0, obj))
    for event in dataset.scene_events:
        entries.append(
            (
                event.time,
                1,
                {
                    "type": "scene",
                    "t": event.time,
                    "kind": event.kind,
                    "node": int(event.node),
                    "details": event.details,
                },
            )
        )
    entries.sort(key=lambda e: (e[0], e[1]))
    with open(path, "w") as fh:
        for _, _, obj in entries:
            fh.write(json.dumps(obj) + "\n")
    return len(entries)


def export_metrics_json(source, path: Union[str, Path]) -> int:
    """Write a telemetry snapshot as one pretty-printed JSON document.

    ``source`` is a :class:`repro.obs.Telemetry` bundle, a
    :class:`repro.obs.MetricsRegistry`, or anything exposing a
    ``snapshot() -> dict``.  Returns the number of metric families
    written.  Histograms carry their bucket layout, counts, sum and
    p50/p95/p99 estimates — enough to re-plot latency distributions
    without the live registry.
    """
    registry = getattr(source, "registry", source)
    snap = registry.snapshot()
    with open(path, "w") as fh:
        json.dump(snap, fh, indent=2, default=str)
        fh.write("\n")
    return len(snap.get("metrics", {}))

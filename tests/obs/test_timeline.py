"""Tests for the Chrome trace-event export (repro/obs/timeline.py)."""

import json

from repro.obs.timeline import (
    PARENT_PID,
    build_timeline,
    timeline_from_dataset,
    write_timeline,
)
from repro.obs.tracing import TraceSpan


def _span(trace_id=1, source=3, t_start=100.0, stages=None):
    return TraceSpan(
        trace_id=trace_id,
        source=source,
        seqno=7,
        channel=1,
        sender=source,
        receiver=None,
        t_start=t_start,
        outcome="delivered",
        stages=tuple(
            stages
            or (
                ("ipc_encode", 2e-6),
                ("ipc_queue", 5e-6),
                ("send", 1e-6),
            )
        ),
    )


def _by_ph(timeline, ph):
    return [e for e in timeline["traceEvents"] if e["ph"] == ph]


class TestBuildTimeline:
    def test_span_without_shard_stays_on_parent(self):
        tl = build_timeline(spans=[_span()])
        xs = _by_ph(tl, "X")
        assert len(xs) == 3
        assert {e["pid"] for e in xs} == {PARENT_PID}
        # Stages lay end-to-end from the span's normalized start.
        assert xs[0]["ts"] == 0.0
        assert xs[1]["ts"] == xs[0]["ts"] + xs[0]["dur"]
        # No flow arrows when nothing crosses a process.
        assert not _by_ph(tl, "s") and not _by_ph(tl, "f")

    def test_shard_map_routes_worker_stages_and_draws_hop(self):
        tl = build_timeline(spans=[_span(source=3)], shard_map={3: 2})
        xs = _by_ph(tl, "X")
        by_name = {e["name"]: e for e in xs}
        assert by_name["ipc_encode"]["pid"] == PARENT_PID
        assert by_name["ipc_queue"]["pid"] == 2 + 2  # shard 2's lane
        assert by_name["send"]["pid"] == 2 + 2
        starts = _by_ph(tl, "s")
        finishes = _by_ph(tl, "f")
        assert len(starts) == 1 and len(finishes) == 1
        assert starts[0]["name"] == "shard-hop"
        assert starts[0]["pid"] == PARENT_PID
        assert finishes[0]["pid"] == 2 + 2
        assert starts[0]["id"] == finishes[0]["id"] == 1
        # Process metadata names both lanes.
        metas = _by_ph(tl, "M")
        names = {
            (e["pid"], e["args"].get("name"))
            for e in metas
            if e["name"] == "process_name"
        }
        assert (PARENT_PID, "parent") in names
        assert (4, "shard-2") in names

    def test_samples_and_transitions_are_instants(self):
        tl = build_timeline(
            samples=[(100.0, "poem-scan", "mod.leaf")],
            transitions=[{"t": 100.5, "event": "overload-state", "to": "SHED"}],
        )
        instants = _by_ph(tl, "i")
        cats = {e["cat"] for e in instants}
        assert cats == {"sample", "overload"}
        sample = next(e for e in instants if e["cat"] == "sample")
        assert sample["name"] == "mod.leaf"
        assert sample["ts"] == 0.0  # earliest wall stamp is the origin
        overload = next(e for e in instants if e["cat"] == "overload")
        assert overload["ts"] == 0.5e6
        assert overload["args"]["to"] == "SHED"

    def test_scene_events_keep_emulation_timebase(self):
        tl = build_timeline(
            spans=[_span(t_start=1_000_000.0)],
            scene_events=[
                {"time": 0.25, "kind": "node-moved", "node": 2, "details": {}}
            ],
        )
        scene = next(
            e for e in tl["traceEvents"] if e.get("cat") == "scene"
        )
        # Emulation stamps are NOT shifted by the wall-clock origin.
        assert scene["ts"] == 0.25e6
        tid_names = {
            e["args"]["name"]
            for e in _by_ph(tl, "M")
            if e["name"] == "thread_name"
        }
        assert "scene (emulation time)" in tid_names

    def test_bulky_detail_keys_filtered_from_args(self):
        tl = build_timeline(
            scene_events=[
                {
                    "time": 0.0,
                    "kind": "profile",
                    "node": -1,
                    "details": {"stacks": {"a": 1}, "role": "parent"},
                }
            ]
        )
        marker = next(
            e for e in tl["traceEvents"] if e.get("cat") == "scene"
        )
        assert "stacks" not in marker["args"]
        assert marker["args"]["role"] == "parent"

    def test_output_is_json_serializable(self):
        tl = build_timeline(
            spans=[_span()],
            samples=[(100.0, "t", "leaf")],
            shard_map={3: 0},
        )
        json.dumps(tl)
        assert tl["displayTimeUnit"] == "ms"
        assert tl["otherData"]["spans"] == 1


class TestRecorderAndFile:
    def test_timeline_from_dataset_uses_cluster_shard_map(self):
        from repro.core.ids import NodeId
        from repro.core.recording import MemoryRecorder
        from repro.core.scene import SceneEvent

        rec = MemoryRecorder()
        rec.record_span(_span(source=3))
        rec.record_scene(
            SceneEvent(
                time=0.0,
                kind="cluster-run",
                node=NodeId(-1),
                details={"shard_map": {"3": 1}, "n_workers": 2},
            )
        )
        tl = timeline_from_dataset(rec)
        xs = _by_ph(tl, "X")
        assert {e["pid"] for e in xs} == {PARENT_PID, 2 + 1}

    def test_write_timeline(self, tmp_path):
        path = write_timeline(
            tmp_path / "sub" / "tl.json", build_timeline(spans=[_span()])
        )
        doc = json.loads((tmp_path / "sub" / "tl.json").read_text())
        assert doc["traceEvents"]
        assert path.endswith("tl.json")

"""Tests for repro.stats.export."""

import csv
import json
from dataclasses import astuple

import pytest

from repro.core.geometry import Vec2
from repro.core.server import InProcessEmulator
from repro.models.radio import RadioConfig
from repro.stats.export import (
    export_jsonl,
    export_metrics_json,
    export_packets_csv,
    export_scene_csv,
)


@pytest.fixture
def recorded(tmp_path):
    emu = InProcessEmulator(seed=0)
    a = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100.0))
    b = emu.add_node(Vec2(50, 0), RadioConfig.single(1, 100.0))
    for i in range(3):
        a.transmit(b.node_id, f"m{i}".encode(), channel=1)
    emu.scene.move_node(b.node_id, Vec2(60, 0))
    emu.run_until(2.0)
    return emu, tmp_path


class TestCsvExport:
    def test_packets_roundtrip(self, recorded):
        emu, tmp = recorded
        path = tmp / "packets.csv"
        count = export_packets_csv(emu.recorder, path)
        rows = list(csv.DictReader(path.open()))
        assert count == len(rows) == len(emu.recorder.packets())
        assert rows[0]["source"] == "1" and rows[0]["destination"] == "2"
        assert rows[0]["kind"] == "data"

    def test_scene_roundtrip(self, recorded):
        emu, tmp = recorded
        path = tmp / "scene.csv"
        count = export_scene_csv(emu.recorder, path)
        rows = list(csv.DictReader(path.open()))
        assert count == len(rows) == len(emu.recorder.scene_events())
        kinds = [r["kind"] for r in rows]
        assert kinds.count("node-added") == 2 and "node-moved" in kinds
        # details column is valid JSON
        assert json.loads(rows[0]["details"])["label"] == "VMN1"


class TestJsonlExport:
    def test_time_ordered_and_tagged(self, recorded):
        emu, tmp = recorded
        path = tmp / "run.jsonl"
        lines = export_jsonl(emu.recorder, path)
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == len(objs)
        assert {o["type"] for o in objs} == {"packet", "scene"}
        times = [o["t"] for o in objs]
        assert times == sorted(times)

    def test_counts_match_recorder(self, recorded):
        emu, tmp = recorded
        path = tmp / "run.jsonl"
        lines = export_jsonl(emu.recorder, path)
        expected = len(emu.recorder.packets()) + len(
            emu.recorder.scene_events()
        )
        assert lines == expected


class TestMetricsJsonExport:
    def test_from_telemetry_bundle(self, tmp_path):
        from repro.obs.telemetry import Telemetry

        emu = InProcessEmulator(seed=0, telemetry=Telemetry(sample_every=1))
        a = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 200.0))
        b = emu.add_node(Vec2(100, 0), RadioConfig.single(1, 200.0))
        a.transmit(b.node_id, b"x", channel=1)
        emu.run_until(1.0)
        path = tmp_path / "metrics.json"
        count = export_metrics_json(emu.telemetry, path)
        obj = json.loads(path.read_text())
        assert count == len(obj["metrics"]) > 0
        ingested = obj["metrics"]["poem_engine_ingested_total"]
        assert ingested["kind"] == "counter"
        assert ingested["samples"][0]["value"] >= 1
        lag = obj["metrics"]["poem_scheduler_lag_seconds"]
        assert lag["kind"] == "histogram"
        assert lag["samples"][0]["count"] >= 1

    def test_from_bare_registry(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("poem_x_total", "things").inc(2)
        path = tmp_path / "metrics.json"
        assert export_metrics_json(reg, path) == 1
        obj = json.loads(path.read_text())
        assert obj["metrics"]["poem_x_total"]["samples"][0]["value"] == 2


class TestCliExport:
    def test_csv_command(self, recorded):
        from repro.cli import main

        emu, tmp = recorded
        from repro.core.recording import SqliteRecorder

        db = tmp / "rec.sqlite"
        sq = SqliteRecorder(str(db))
        for p in emu.recorder.packets():
            sq.record_packet(astuple(p)[1:])
        for e in emu.recorder.scene_events():
            sq.record_scene(e)
        sq.close()
        out = tmp / "out.csv"
        rc = main(["export", str(db), "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert (tmp / "out_scene.csv").exists()

    def test_jsonl_command(self, recorded, tmp_path):
        from repro.cli import main
        from repro.core.recording import SqliteRecorder

        emu, tmp = recorded
        db = tmp / "rec2.sqlite"
        sq = SqliteRecorder(str(db))
        for p in emu.recorder.packets():
            sq.record_packet(astuple(p)[1:])
        sq.close()
        out = tmp / "out.jsonl"
        assert main(["export", str(db), "--format", "jsonl",
                     "--out", str(out)]) == 0
        assert out.read_text().count("\n") >= 3

"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

NODES = [
    {"x": 0, "y": 0, "label": "A", "protocol": "hybrid",
     "radios": [{"channel": 1, "range": 200}]},
    {"x": 100, "y": 0, "label": "B", "protocol": "hybrid",
     "radios": [{"channel": 1, "range": 200}]},
]

SCENARIO = [
    {"t": 2.0, "op": "move", "node": 2, "x": 120.0, "y": 0.0},
]


@pytest.fixture
def workspace(tmp_path):
    nodes = tmp_path / "nodes.json"
    nodes.write_text(json.dumps(NODES))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    return tmp_path, nodes, scenario


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig5"])
        assert args.name == "fig5"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestRunScenario:
    def test_records_a_run(self, workspace, capsys):
        tmp, nodes, scenario = workspace
        record = tmp / "out.sqlite"
        rc = main([
            "run-scenario", str(scenario), "--nodes", str(nodes),
            "--record", str(record), "--until", "5.0", "--seed", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recorded" in out and "2 nodes" in out
        assert record.exists()
        # The count comes from len(recorder), not a load of every record.
        from repro.core.recording import SqliteRecorder

        recorder = SqliteRecorder(str(record))
        try:
            rows, events = len(recorder.packets()), len(recorder.scene_events())
        finally:
            recorder.close()
        assert rows > 0
        assert (
            f"recorded {rows} packet rows and {events} scene events "
            f"to {record} (5.0s of emulation, 2 nodes)"
        ) in out.splitlines()

    def test_missing_nodes_file(self, workspace, capsys):
        tmp, _, scenario = workspace
        rc = main([
            "run-scenario", str(scenario), "--nodes", str(tmp / "nope.json"),
            "--record", str(tmp / "o.sqlite"), "--until", "1.0",
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_protocol_rejected(self, workspace, capsys):
        tmp, _, scenario = workspace
        bad = tmp / "bad.json"
        bad.write_text(json.dumps([
            {"x": 0, "y": 0, "protocol": "ospf",
             "radios": [{"channel": 1, "range": 10}]}
        ]))
        rc = main([
            "run-scenario", str(scenario), "--nodes", str(bad),
            "--record", str(tmp / "o.sqlite"), "--until", "1.0",
        ])
        assert rc == 1
        assert "unknown protocol" in capsys.readouterr().err


class TestReplay:
    def _record(self, workspace):
        tmp, nodes, scenario = workspace
        record = tmp / "out.sqlite"
        main([
            "run-scenario", str(scenario), "--nodes", str(nodes),
            "--record", str(record), "--until", "5.0",
        ])
        return tmp, record

    def test_summary_only(self, workspace, capsys):
        tmp, record = self._record(workspace)
        capsys.readouterr()
        rc = main(["replay", str(record), "--summary-only"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Replay summary" in out
        assert "t=" not in out  # frames suppressed

    def test_timeline_frames(self, workspace, capsys):
        tmp, record = self._record(workspace)
        capsys.readouterr()
        rc = main(["replay", str(record), "--fps", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("--- t=") >= 3
        assert "A" in out and "B" in out

    def test_svg_export(self, workspace, capsys):
        tmp, record = self._record(workspace)
        svg_dir = tmp / "frames"
        rc = main([
            "replay", str(record), "--summary-only", "--fps", "1.0",
            "--svg", str(svg_dir),
        ])
        assert rc == 0
        frames = sorted(svg_dir.glob("frame_*.svg"))
        assert len(frames) >= 5
        assert frames[0].read_text().startswith("<svg")


class TestExperimentCommand:
    def test_fig5_prints_rows(self, capsys):
        rc = main(["experiment", "fig5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "err 1-shot" in out

    def test_table1_prints_matrix(self, capsys):
        rc = main(["experiment", "table1"])
        assert rc == 0
        assert "PoEm" in capsys.readouterr().out


class TestProfileCommand:
    @staticmethod
    def _profiled_recording(tmp_path):
        from repro.core.geometry import Vec2
        from repro.core.recording import SqliteRecorder
        from repro.core.server import InProcessEmulator
        from repro.models.radio import RadioConfig

        db = tmp_path / "profiled.sqlite"
        recorder = SqliteRecorder(db)
        emu = InProcessEmulator(
            seed=1, recorder=recorder, profile_hz=200.0
        )
        try:
            radios = RadioConfig.single(1, 200.0)
            a = emu.add_node(Vec2(0, 0), radios, label="a")
            b = emu.add_node(Vec2(100, 0), radios, label="b")
            for i in range(20):
                emu.clock.call_at(
                    0.01 * (i + 1),
                    lambda: a.transmit(b.node_id, b"x" * 16, channel=1),
                )
            emu.run_until(1.0)
            emu.profiler.sample_once()  # at least one pass, even on slow CI
            emu.record_run_summary()
        finally:
            emu.shutdown()
            recorder.close()
        return db

    def test_profile_summary_from_recording(self, tmp_path, capsys):
        db = self._profiled_recording(tmp_path)
        assert main(["profile", str(db)]) == 0
        out = capsys.readouterr().out
        assert "role=emulator" in out
        assert "samples" in out

    def test_profile_collapsed_to_file(self, tmp_path, capsys):
        db = self._profiled_recording(tmp_path)
        out_file = tmp_path / "prof.folded"
        rc = main([
            "profile", str(db), "--format", "collapsed",
            "--out", str(out_file),
        ])
        assert rc == 0
        lines = out_file.read_text().rstrip("\n").splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert stack.startswith("emulator;") and int(count) >= 1

    def test_profile_json_format(self, tmp_path, capsys):
        db = self._profiled_recording(tmp_path)
        assert main(["profile", str(db), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["role"] == "emulator" and doc["stacks"]

    def test_unprofiled_recording_is_an_error(self, workspace, capsys):
        tmp, nodes, scenario = workspace
        record = tmp / "bare.sqlite"
        main([
            "run-scenario", str(scenario), "--nodes", str(nodes),
            "--record", str(record), "--until", "2.0",
        ])
        capsys.readouterr()
        assert main(["profile", str(record)]) == 1
        assert "profile" in capsys.readouterr().err

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["profile"]) == 1
        db = self._profiled_recording(tmp_path)
        assert main([
            "profile", str(db), "--live", "http://127.0.0.1:1",
        ]) == 1

    def test_seconds_requires_live(self, tmp_path, capsys):
        db = self._profiled_recording(tmp_path)
        assert main(["profile", str(db), "--seconds", "1"]) == 1
        assert "--live" in capsys.readouterr().err

    def test_analyze_exports_timeline(self, tmp_path, capsys):
        db = self._profiled_recording(tmp_path)
        out_file = tmp_path / "timeline.json"
        rc = main([
            "analyze", str(db), "--format", "text",
            "--timeline", str(out_file),
        ])
        assert rc == 0
        assert "Perfetto" in capsys.readouterr().out
        doc = json.loads(out_file.read_text())
        assert doc["traceEvents"]
        # The profiled run's terminal marker rides along as a scene
        # instant; bulky payloads stay out of the args.
        profile_marks = [
            e for e in doc["traceEvents"] if e.get("name") == "profile"
        ]
        assert profile_marks
        assert "stacks" not in profile_marks[0]["args"]


class TestStatsCommand:
    def test_stats_report(self, workspace, capsys):
        tmp, nodes, scenario = workspace
        record = tmp / "out.sqlite"
        main([
            "run-scenario", str(scenario), "--nodes", str(nodes),
            "--record", str(record), "--until", "5.0",
        ])
        capsys.readouterr()
        rc = main(["stats", str(record)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Run statistics" in out
        assert "packet records" in out


class TestConsoleCommand:
    def test_scripted_console_session(self, workspace, monkeypatch, capsys):
        """Drive the console through stdin like a user would."""
        import io
        import sys

        tmp, nodes, _ = workspace
        monkeypatch.setattr(
            sys, "stdin", io.StringIO("nodes\nrun 3\nroutes 1\nquit\n")
        )
        rc = main(["console", "--nodes", str(nodes)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "A" in out and "B" in out
        assert "# of Routing Entries: 1" in out


#: Every offline reader, with the output path it would write if it
#: ran (``{out}``).
READERS = {
    "stats": ["stats"],
    "analyze": ["analyze", "--out", "{out}"],
    "analyze-fail-degraded": ["analyze", "--fail-degraded"],
    "analyze-timeline": ["analyze", "--timeline", "{out}"],
    "replay": ["replay", "--svg", "{out}"],
    "export-csv": ["export", "--out", "{out}"],
    "export-jsonl": ["export", "--format", "jsonl", "--out", "{out}"],
    "profile": ["profile", "--out", "{out}"],
}


def _reader_argv(name, recording, out):
    cmd, *rest = READERS[name]
    return [cmd, str(recording)] + [a.format(out=out) for a in rest]


class TestReadingWritesNothing:
    @pytest.mark.parametrize("name", sorted(READERS))
    def test_missing_recording_fails_and_creates_nothing(
        self, tmp_path, capsys, name
    ):
        argv = _reader_argv(name, tmp_path / "absent.sqlite",
                            tmp_path / "out")
        assert main(argv) == 1
        assert "no recording" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_foreign_database_fails_and_stays_unchanged(
        self, tmp_path, capsys, name
    ):
        import hashlib
        import sqlite3

        foreign = tmp_path / "other.db"
        conn = sqlite3.connect(foreign)
        conn.execute("CREATE TABLE notes (body TEXT)")
        conn.execute("INSERT INTO notes VALUES ('keep me')")
        conn.commit()
        conn.close()
        digest = hashlib.sha1(foreign.read_bytes()).hexdigest()
        argv = _reader_argv(name, foreign, tmp_path / "out")
        assert main(argv) == 1
        assert "not a PoEm recording" in capsys.readouterr().err
        assert hashlib.sha1(foreign.read_bytes()).hexdigest() == digest
        assert list(tmp_path.iterdir()) == [foreign]

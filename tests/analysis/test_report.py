"""Report layer: analyze(), the three renderers, and every surface
that exposes them — ``poem analyze``, the console command, ``/report``.
"""

import io
import json
import urllib.request
from dataclasses import astuple

import pytest

from repro.analysis import Thresholds, analyze, load_dataset
from repro.analysis import RunDataset
from repro.analysis.report import render_html, render_json, render_text
from repro.cli import main
from repro.core.geometry import Vec2
from repro.core.ids import ChannelId, NodeId
from repro.core.packet import PacketRecord
from repro.core.recording import MemoryRecorder, SqliteRecorder
from repro.core.scene import SceneEvent
from repro.core.server import InProcessEmulator
from repro.gui.console import PoEmConsole
from repro.models.radio import Radio, RadioConfig
from repro.obs.httpd import TelemetryHTTPServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.stats.report import build_report

CH = ChannelId(1)
RADIOS = RadioConfig((Radio(channel=CH, range=100.0),))


def make_run(recorder=None):
    """A small deterministic virtual run: 5 delivered, 1 dropped."""
    emu = InProcessEmulator(
        seed=11, recorder=recorder,
        telemetry=Telemetry(sample_every=1),
    )
    a = emu.add_node(Vec2(0, 0), RADIOS, label="a")
    b = emu.add_node(Vec2(20, 0), RADIOS, label="b", clock_offset=0.02)
    far = emu.add_node(Vec2(5000, 0), RADIOS, label="far")
    for i in range(5):
        emu.clock.call_at(
            0.01 + i * 0.02,
            lambda: a.transmit(b.node_id, b"p" * 16, channel=CH),
        )
    emu.clock.call_at(
        0.02, lambda: a.transmit(far.node_id, b"q" * 16, channel=CH)
    )
    emu.run_until(0.3)
    emu.record_run_summary()
    return emu


@pytest.fixture(scope="module")
def report():
    emu = make_run()
    return analyze(emu.recorder, lineage_samples=2)


class TestAnalyze:
    def test_totals(self, report):
        assert report.total == 6
        assert report.delivered == 5
        assert report.medium_drops == 1 and report.transport_drops == 0
        assert report.drops_by_reason == {"not-neighbor": 1}
        assert 0 < report.delivery_ratio < 1

    def test_summary_consistency_checked(self, report):
        assert report.run_summary is not None
        assert report.summary_consistent is True

    def test_lineage_samples_resolved(self, report):
        assert len(report.lineages) == 2
        assert report.lineages[0].complete  # traced delivered packet

    def test_explicit_record_ids(self):
        emu = make_run()
        ds = load_dataset(emu.recorder)
        rid = ds.delivered[3].record_id
        rep = analyze(ds, lineage_records=[rid])
        assert [l.record.record_id for l in rep.lineages] == [rid]

    def test_accepts_dataset_and_path(self, tmp_path):
        path = str(tmp_path / "run.sqlite")
        rec = SqliteRecorder(path)
        emu = make_run(recorder=rec)
        by_recorder = analyze(emu.recorder)
        rec.close()
        by_path = analyze(path)
        assert by_path.total == by_recorder.total == 6
        assert by_path.delivered == by_recorder.delivered

    def test_empty_dataset(self):
        rep = analyze(RunDataset([], [], [], []))
        assert rep.total == 0 and rep.duration == 0.0
        assert rep.summary_consistent is None
        assert rep.anomalies == [] and rep.lineages == []
        # All renderers must survive an empty run.
        assert "0 total" in render_text(rep)
        assert json.loads(render_json(rep))["run"]["total"] == 0
        assert "<html>" in render_html(rep)


def lagged_recording(lag, *states, recorder=None):
    """20 data records, each delivered ``lag`` after ``t_forward``, plus
    one recorded overload transition into each of ``states`` and back
    to nominal."""
    rec = recorder if recorder is not None else MemoryRecorder()
    for i in range(20):
        t = 0.1 * i
        rec.record_packet(astuple(PacketRecord(
            record_id=i + 1, seqno=i + 1, source=1, destination=2,
            sender=1, receiver=2, channel=1, kind="data", size_bits=800,
            t_origin=t, t_receipt=t, t_forward=t + 0.005,
            t_delivered=t + 0.005 + lag,
        ))[1:])
    for k, state in enumerate(states):
        for t, old, new in ((0.5 + k, "nominal", state),
                            (0.7 + k, state, "nominal")):
            rec.record_scene(SceneEvent(
                time=t, kind="overload-state", node=NodeId(-1),
                details={"from": old, "to": new},
            ))
    return rec


def on_time_recording(*states):
    """:func:`lagged_recording` with every delivery 1 ms late, well
    inside the 10 ms budget."""
    return lagged_recording(0.001, *states)


class TestOneVerdict:
    """``poem stats`` and ``poem analyze`` read one recording into one
    fidelity verdict, overload intervals included."""

    @pytest.mark.parametrize("states, verdict", [
        ((), "real-time"),
        (("pressured",), "degraded"),
        (("pressured", "saturated"), "overloaded"),
    ])
    def test_stats_and_analyze_agree(self, states, verdict):
        rec = on_time_recording(*states)
        stats = build_report(rec)
        assert stats.deadline_on_time == 20
        assert stats.deadline_late == stats.deadline_missed == 0
        assert stats.fidelity == verdict
        assert analyze(rec).fidelity["verdict"] == verdict

    def test_buckets_follow_the_runs_own_budget(self, tmp_path, capsys):
        """A run judged live against 2 ms is re-judged against 2 ms, not
        the 10 ms default: 5 ms late is late.  An explicit budget wins."""
        path = str(tmp_path / "tight.sqlite")
        rec = SqliteRecorder(path)
        lagged_recording(0.005, recorder=rec)
        InProcessEmulator(lag_budget=0.002, recorder=rec).record_run_summary()
        rec.close()

        stats = build_report(path)
        assert stats.lag_budget == 0.002
        assert stats.deadline_late == 20 and stats.fidelity == "degraded"
        fidelity = analyze(path).fidelity
        assert fidelity["late"] == 20 and fidelity["verdict"] == "degraded"
        argv = ["analyze", path, "--format", "json", "--lineage", "0"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["fidelity"]["late"] == 20

        assert build_report(path, lag_budget=0.010).deadline_late == 0
        assert main([*argv, "--lag-budget", "0.010"]) == 0
        assert json.loads(capsys.readouterr().out)["fidelity"]["late"] == 0


class TestRenderers:
    def test_text_sections(self, report):
        text = render_text(report)
        assert "PoEm run forensics" in text
        assert "clock audit" in text and "anomalies" in text
        assert "sample lineage" in text
        assert "consistent" in text
        assert "node 2 (b)" in text  # skewed client named in the audit

    def test_json_round_trip(self, report):
        doc = json.loads(render_json(report))
        assert doc["run"]["total"] == 6
        assert doc["run"]["delivered"] == 5
        assert doc["run"]["summary_consistent"] is True
        assert "2" in doc["clocks"]
        assert isinstance(doc["aggregates"], list) and doc["aggregates"]
        assert doc["lineages"][0]["stages"][0]["stage"] == "origin"

    def test_html_self_contained_and_escaped(self, report):
        page = render_html(report, title="<run & title>")
        assert page.startswith("<!DOCTYPE html>")
        assert "&lt;run &amp; title&gt;" in page
        assert "<script src" not in page and "http://" not in page
        assert "Clock audit" in page and "Anomalies" in page


class TestCLI:
    @pytest.fixture()
    def db(self, tmp_path):
        path = str(tmp_path / "run.sqlite")
        rec = SqliteRecorder(path)
        make_run(recorder=rec)
        rec.close()
        return path

    def test_text_to_stdout(self, db, capsys):
        assert main(["analyze", db]) == 0
        out = capsys.readouterr().out
        assert "PoEm run forensics" in out
        assert "5 delivered" in out

    def test_json_format(self, db, capsys):
        assert main(["analyze", db, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["run"]["total"] == 6

    def test_html_to_file(self, db, tmp_path, capsys):
        out_path = tmp_path / "report.html"
        assert main([
            "analyze", db, "--format", "html", "--out", str(out_path),
        ]) == 0
        assert "wrote html report" in capsys.readouterr().out
        assert out_path.read_text().startswith("<!DOCTYPE html>")

    def test_threshold_flags_reach_detectors(self, db, capsys):
        # A 20 ms modelled offset on node b: a tiny drift budget must
        # flag it, the default must not appear as critical noise.
        assert main([
            "analyze", db, "--format", "json",
            "--drift-budget", "0.001", "--lineage", "0",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        kinds = {a["kind"] for a in doc["anomalies"]}
        assert "clock-drift" in kinds
        assert doc["lineages"] == []

    def test_record_id_selection(self, db, capsys):
        assert main([
            "analyze", db, "--format", "json", "--record-id", "1",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [l["record_id"] for l in doc["lineages"]] == [1]


class TestConsoleAnalyze:
    @pytest.fixture()
    def console(self):
        emu = make_run()
        out = io.StringIO()
        return PoEmConsole(emu, stdout=out), out

    def run(self, con, out, command):
        out.truncate(0)
        out.seek(0)
        con.onecmd(command)
        return out.getvalue()

    def test_full_report(self, console):
        con, out = console
        text = self.run(con, out, "analyze")
        assert "PoEm run forensics" in text
        assert "anomalies" in text

    def test_single_lineage(self, console):
        con, out = console
        text = self.run(con, out, "analyze 1")
        assert "packet record 1" in text
        assert "origin" in text and "delivery" in text

    def test_bad_argument(self, console):
        con, out = console
        assert "usage: analyze" in self.run(con, out, "analyze bogus")

    def test_unknown_record(self, console):
        con, out = console
        assert "analysis failed" in self.run(con, out, "analyze 99999")


class TestReportEndpoint:
    def _get(self, addr, path):
        host, port = addr
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=5.0
        ) as resp:
            return resp.status, resp.headers.get("Content-Type"), resp.read()

    def test_report_formats(self):
        emu = make_run()
        srv = TelemetryHTTPServer(MetricsRegistry(), recorder=emu.recorder)
        addr = srv.start()
        try:
            status, ctype, body = self._get(addr, "/report")
            assert status == 200
            assert ctype.startswith("text/html")
            assert b"<!DOCTYPE html>" in body

            status, ctype, body = self._get(addr, "/report?format=json")
            assert status == 200
            assert ctype.startswith("application/json")
            assert json.loads(body)["run"]["total"] == 6

            status, ctype, body = self._get(addr, "/report?format=text")
            assert status == 200
            assert ctype.startswith("text/plain")
            assert b"PoEm run forensics" in body
        finally:
            srv.stop()

    def test_no_recorder_404(self):
        srv = TelemetryHTTPServer(MetricsRegistry())
        addr = srv.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._get(addr, "/report")
            assert err.value.code == 404
        finally:
            srv.stop()

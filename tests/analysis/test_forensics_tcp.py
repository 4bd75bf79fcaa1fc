"""Acceptance: `poem analyze` over a real end-to-end TCP run.

One live :class:`~repro.core.tcpserver.PoEmServer` writing to a SQLite
file, three TCP clients (one with a deliberately drifting local clock
via :class:`~repro.net.faults.SkewedClock`, one parked out of range so
the medium drops its traffic), full tracing, an orderly shutdown — and
then the offline forensics pass must:

* reproduce the delivery/drop totals exactly (cross-checked against
  :func:`repro.stats.report.build_report`),
* resolve a complete 7-stage lineage for at least one sampled packet,
* flag the skewed client as a ``clock-drift`` anomaly.

Plus the reconnect satellite: a client that drops mid-run and
auto-reconnects leaves sync samples for *both* handshakes in the log.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.analysis import Thresholds, analyze, load_dataset
from repro.analysis.lineage import LINEAGE_STAGES, lineage
from repro.cli import main
from repro.core.client import PoEmClient
from repro.core.clock import RealTimeClock
from repro.core.geometry import Vec2
from repro.core.recording import SqliteRecorder
from repro.core.tcpserver import PoEmServer
from repro.models.radio import RadioConfig
from repro.net.faults import ClockSkew, FaultSpec, FaultyTransport, SkewedClock
from repro.obs.telemetry import Telemetry
from repro.stats.report import build_report

RADIOS = RadioConfig.single(1, 100.0)


def wait_for(predicate, timeout=8.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """One end-to-end TCP run recorded to a SQLite file."""
    path = str(tmp_path_factory.mktemp("forensics") / "run.sqlite")
    recorder = SqliteRecorder(path)
    srv = PoEmServer(
        seed=0,
        recorder=recorder,
        telemetry=Telemetry(sample_every=1),
        heartbeat_interval=0.2,
    )
    srv.start()
    clients = []
    try:
        a = PoEmClient(srv.address, Vec2(0, 0), RADIOS,
                       label="alice", sync_rounds=3)
        b = PoEmClient(srv.address, Vec2(40, 0), RADIOS,
                       label="bob", sync_rounds=3)
        # 5% fast oscillator: each §4.1 exchange measures a different
        # offset, and the recorded samples expose the drift rate.
        drifty = PoEmClient(
            srv.address, Vec2(20, 20), RADIOS, label="drifty",
            sync_rounds=3,
            local_clock=SkewedClock(RealTimeClock(), ClockSkew(drift=0.05)),
        )
        # Far out of range of everyone: its frames die on the medium.
        loner = PoEmClient(srv.address, Vec2(5000, 5000), RADIOS,
                           label="loner", sync_rounds=2)
        clients = [a, b, drifty, loner]
        for c in clients:
            c.connect()

        for _ in range(10):
            a.transmit(b.node_id, b"payload", channel=1)
            time.sleep(0.005)
        for _ in range(3):
            loner.transmit(a.node_id, b"void", channel=1)
            time.sleep(0.005)

        # Let the drift accumulate, then resync: a second cluster of
        # sync samples at a measurably different offset.
        time.sleep(0.5)
        drifty.synchronize()

        assert wait_for(
            lambda: sum(1 for p in recorder.packets() if not p.dropped) >= 10
            and len(recorder.dropped_packets()) >= 3
        )
        drifty_node = int(drifty.node_id)
    finally:
        for c in clients:
            c.close()
        srv.stop()  # records the run-summary marker
        recorder.close()
    return path, drifty_node


class TestForensicsAcceptance:
    def test_totals_match_stats_report_exactly(self, recorded_run):
        path, _ = recorded_run
        rec = SqliteRecorder(path)
        try:
            stats = build_report(rec)
        finally:
            rec.close()
        report = analyze(path)
        assert report.total == stats.total_records
        assert report.delivered == stats.delivered
        assert report.medium_drops + report.transport_drops == stats.dropped
        assert report.transport_drops == stats.transport_dropped
        assert report.drops_by_reason == dict(stats.drop_reasons)
        # Clean shutdown recorded a summary consistent with both.
        assert report.run_summary is not None
        assert report.summary_consistent is True
        assert report.run_summary["forwarded"] == stats.delivered

    def test_full_seven_stage_lineage_resolves(self, recorded_run):
        path, _ = recorded_run
        ds = load_dataset(path)
        complete = 0
        for record in ds.delivered:
            if not ds.spans_for(record):
                continue
            lin = lineage(ds, record.record_id)
            assert [s.name for s in lin.stages] == list(LINEAGE_STAGES)
            if lin.complete:
                complete += 1
        assert complete >= 1

    def test_skewed_client_flagged_as_drift_anomaly(self, recorded_run):
        path, drifty_node = recorded_run
        report = analyze(path, thresholds=Thresholds(drift_budget=0.005))
        drift = [a for a in report.anomalies if a.kind == "clock-drift"]
        assert drift, "the 5% oscillator must be flagged"
        assert any(f"node {drifty_node}" in a.subject for a in drift)
        # The fitted rate points the right way: a fast client clock
        # makes the measured (server - client) offset shrink over time.
        flagged = next(
            a for a in drift if a.data["node"] == drifty_node
        )
        assert flagged.data["rate"] < 0

    def test_cli_analyze_on_the_same_db(self, recorded_run, capsys):
        path, drifty_node = recorded_run
        assert main([
            "analyze", path, "--format", "json",
            "--drift-budget", "0.005",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["run"]["summary_consistent"] is True
        kinds = {a["kind"] for a in doc["anomalies"]}
        assert "clock-drift" in kinds
        assert str(drifty_node) in doc["clocks"]

    def test_sync_samples_cover_all_clients(self, recorded_run):
        path, drifty_node = recorded_run
        ds = load_dataset(path)
        # register: 3+3+3+2 samples; drifty's resync adds 3 more.
        assert len(ds.synced_nodes()) == 4
        drifty_syncs = ds.syncs_for(drifty_node)
        assert len(drifty_syncs) >= 6
        causes = {s.cause for s in drifty_syncs}
        assert causes >= {"register", "resync"}


class TestReconnectSyncSamples:
    """The reconnect handshake re-runs §4.1 and records its samples."""

    def test_samples_for_both_handshakes(self):
        srv = PoEmServer(seed=0, heartbeat_interval=0.1,
                         heartbeat_misses=2, stale_grace=3.0)
        srv.start()
        phoenix = None
        try:
            state = {"first": True}

            def wrapper(sock):
                if state["first"]:
                    state["first"] = False
                    return FaultyTransport(
                        sock, FaultSpec(disconnect_after=4), seed=3
                    )
                return sock

            phoenix = PoEmClient(
                srv.address, Vec2(0, 0), RADIOS, label="phoenix",
                sync_rounds=2, auto_reconnect=True,
                reconnect_base=0.02, reconnect_cap=0.2,
                max_reconnect_attempts=20, reconnect_seed=11,
                transport_wrapper=wrapper,
            )
            node = int(phoenix.connect())
            assert wait_for(
                lambda: any(
                    s.cause == "register"
                    for s in srv.recorder.sync_samples()
                )
            )

            # Kill the first socket with a burst of traffic, wait for
            # the automatic reconnect + resync.
            for _ in range(8):
                phoenix.transmit(node + 1, b"burst", channel=1)
                time.sleep(0.01)
            assert wait_for(lambda: phoenix.reconnects >= 1)
            assert wait_for(
                lambda: any(
                    s.cause == "reconnect"
                    for s in srv.recorder.sync_samples()
                )
            )

            samples = [
                s for s in srv.recorder.sync_samples() if s.node == node
            ]
            causes = [s.cause for s in samples]
            assert "register" in causes and "reconnect" in causes
            # Reconnect samples come after the register ones.
            t_reg = max(
                s.t_server for s in samples if s.cause == "register"
            )
            t_rec = min(
                s.t_server for s in samples if s.cause == "reconnect"
            )
            assert t_rec > t_reg
            assert all(s.label == "phoenix" for s in samples)

            # The offline audit sees one client with both clusters.
            ds = load_dataset(srv.recorder)
            assert node in ds.synced_nodes()
            assert len(ds.syncs_for(node)) == len(samples)
        finally:
            if phoenix is not None:
                phoenix.close()
            srv.stop()

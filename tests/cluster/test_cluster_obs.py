"""Acceptance tests for cluster-wide observability: cross-process trace
propagation, merged worker telemetry, staleness flags, and the crash
flight recorder.

These spawn real worker processes (small loads — 1-core CI boxes run
them too).
"""

import time
import urllib.request

import pytest

from repro.analysis import RunDataset
from repro.analysis.report import analyze, render_text
from repro.cli import main as cli_main
from repro.cluster import ShardedEmulator
from repro.core.geometry import Vec2
from repro.core.ids import ChannelId
from repro.errors import ClusterError
from repro.models.radio import RadioConfig
from repro.obs.flightrec import format_flight, load_flight
from repro.obs.httpd import TelemetryHTTPServer
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import IPC_STAGES
from repro.stats.report import format_health

RADIOS = RadioConfig.single(1, 200.0)


def line_topology(emu, n=4, spacing=50.0):
    return [
        emu.add_node(Vec2(spacing * i, 0.0), RADIOS, label=f"n{i}")
        for i in range(n)
    ]


def ring_load(hosts, frames, interval=0.01):
    n = len(hosts)
    for i in range(frames):
        hosts[i % n].transmit(
            hosts[(i + 1) % n].node_id,
            b"x" * 32,
            channel=ChannelId(1),
            t=interval * (i + 1),
        )


class TestTracePropagation:
    def test_traced_packet_lineage_spans_processes(self):
        """Acceptance: a traced packet in a 4-worker run yields ONE
        contiguous span covering parent-side encode, the pipe hop, and
        every worker-side pipeline stage — under the parent's trace id —
        and the forensics lineage renders the hop."""
        telemetry = Telemetry(sample_every=1)  # trace everything
        with ShardedEmulator(
            n_workers=4, seed=21, telemetry=telemetry
        ) as emu:
            hosts = line_topology(emu, n=8)
            ring_load(hosts, frames=32)
            emu.flush(1.0)
            records = emu.collect()
            recorder = emu.recorder

        spans = telemetry.recent_spans()
        delivered_spans = [s for s in spans if s.outcome == "delivered"]
        assert delivered_spans, "no delivered traced spans survived"
        for span in delivered_spans:
            names = [n for n, _ in span.stages]
            # The cross-process prefix, in order, then the worker's
            # pipeline stages — one contiguous story.
            assert tuple(names[:3]) == IPC_STAGES
            assert {"neighbor_lookup", "schedule_push", "send",
                    "record"} <= set(names)
            assert span.trace_id > 0
            assert all(d >= 0.0 for _, d in span.stages)

        # Every traced span maps back to a collected record.
        keys = {(r.source, r.seqno) for r in records}
        assert all((s.source, s.seqno) in keys for s in delivered_spans)

        # The recorder got the merged spans; lineage shows the hop.
        dataset = RunDataset.from_recorder(recorder)
        assert dataset.spans
        traced = next(
            r for r in dataset.delivered if dataset.spans_for(r)
        )
        report = analyze(recorder, lineage_records=[traced.record_id])
        lin = report.lineages[0]
        hop = lin.stage("shard-hop")
        assert hop is not None
        assert "dwell" in hop.detail
        assert "shard-hop" in render_text(report)

    def test_worker_spans_survive_without_flush(self):
        """Spans ride the periodic-pull exchange too, not only barriers."""
        telemetry = Telemetry(sample_every=1)
        with ShardedEmulator(
            n_workers=2, seed=5, telemetry=telemetry
        ) as emu:
            hosts = line_topology(emu, n=2)
            hosts[0].transmit(
                hosts[1].node_id, b"x", channel=ChannelId(1), t=0.01
            )
            emu.flush(0.5)  # barrier runs the pipeline...
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                emu.pull_telemetry()  # ...the pull ships the spans
                if telemetry.recent_spans():
                    break
                time.sleep(0.02)
        assert telemetry.recent_spans()


class TestMergedTelemetry:
    def test_metrics_totals_equal_collected_work(self):
        """Acceptance: the parent's /metrics totals on a cluster run
        equal the sum of per-shard work, cross-checked against the
        collected record stream."""
        telemetry = Telemetry()
        frames = 40
        with ShardedEmulator(
            n_workers=4, seed=9, telemetry=telemetry
        ) as emu:
            hosts = line_topology(emu, n=8)
            ring_load(hosts, frames=frames)
            emu.flush(1.0)
            records = emu.collect()
            health = emu.health()

        # Unicast ring: one record per ingested frame.
        assert len(records) == frames
        reg = telemetry.registry
        assert reg.get("poem_engine_ingested_total").value() == frames
        forwarded = sum(
            1 for r in records if r.t_delivered is not None
        )
        dropped = len(records) - forwarded
        assert reg.get("poem_engine_forwarded_total").value() == forwarded
        assert reg.get("poem_engine_dropped_total").value() == dropped
        per_worker = health["cluster"]["per_worker"]
        assert sum(w["shard_ingested"] for w in per_worker) == frames

        # And the HTTP exposition serves the merged totals.
        httpd = TelemetryHTTPServer(reg, health_fn=lambda: health)
        host, port = httpd.start()
        try:
            body = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=5
            ).read().decode()
        finally:
            httpd.stop()
        assert f"poem_engine_ingested_total {frames}" in body

    def test_pull_refreshes_stats_without_a_barrier(self):
        """The periodic-pull path must update shard gauges and fold
        worker counters with no flush() in sight."""
        telemetry = Telemetry()
        with ShardedEmulator(
            n_workers=2, seed=3, telemetry=telemetry, batch_frames=1
        ) as emu:
            hosts = line_topology(emu, n=4)
            ring_load(hosts, frames=12)
            total = 0
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = emu.pull_telemetry()
                total = sum(w["shard_ingested"] for w in stats)
                if total == 12:
                    break
                time.sleep(0.02)
            assert total == 12
            ingested = telemetry.registry.get(
                "poem_engine_ingested_total"
            )
            assert ingested is not None and ingested.value() == 12
            assert all(
                w["report_age"] is not None for w in emu.worker_stats
            )
            emu.flush(1.0)
            emu.collect()

    def test_stale_shard_is_flagged_in_health(self):
        # Interval far longer than the test: the puller never fires, so
        # report ages move only when we backdate them by hand.
        with ShardedEmulator(
            n_workers=2, seed=0, telemetry=Telemetry(),
            telemetry_interval=60.0,
        ) as emu:
            line_topology(emu, n=2)
            emu.flush(0.1)  # every shard reports: fresh
            health = emu.health()
            assert health["cluster"]["pull_interval"] == 60.0
            assert not any(
                w["stale"] for w in health["cluster"]["per_worker"]
            )
            assert "STALE" not in format_health(health)
            # Shard 1 goes silent for > 2x the pull interval.
            emu._last_report[1] = time.monotonic() - 300.0
            health = emu.health()
            flags = [w["stale"] for w in health["cluster"]["per_worker"]]
            assert flags == [False, True]
            pane = format_health(health)
            assert "STALE" in pane and "last report" in pane
            # The next barrier delivers a fresh report: staleness clears.
            emu.flush(0.2)
            health = emu.health()
            assert not any(
                w["stale"] for w in health["cluster"]["per_worker"]
            )

    def test_no_interval_means_never_stale(self):
        with ShardedEmulator(n_workers=1, seed=0) as emu:
            line_topology(emu, n=2)
            health = emu.health()
        assert not any(
            w["stale"] for w in health["cluster"]["per_worker"]
        )


class TestFlightRecorder:
    def test_worker_kill_dumps_readable_artifact(self, tmp_path, capsys):
        """Acceptance: killing a worker mid-run produces a flight
        artifact that `poem analyze --flight` renders, and the
        recording raises the last-crash anomaly."""
        emu = ShardedEmulator(
            n_workers=2, seed=0, flight_dir=str(tmp_path)
        )
        hosts = line_topology(emu, n=4)
        emu.start()
        ring_load(hosts, frames=8)
        emu._procs[0].kill()  # SIGKILL: no goodbye frame possible
        with pytest.raises(ClusterError):
            emu.flush(1.0)
        recorder = emu.recorder
        emu.stop()

        path = tmp_path / "poem-flight-parent.json"
        assert path.exists()
        artifact = load_flight(path)
        assert artifact["role"] == "parent"
        text = format_flight(artifact)
        assert "worker-crash" in text
        assert "cluster-start" in text

        # The CLI path: `poem analyze --flight PATH` with no recording.
        assert cli_main(["analyze", "--flight", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Flight recorder" in out and "worker-crash" in out

        # The forensics catalog flags the truncated run.
        report = analyze(recorder)
        crashes = [a for a in report.anomalies if a.kind == "last-crash"]
        assert len(crashes) == 1
        assert crashes[0].severity == "critical"
        assert crashes[0].data["flight"] == str(path)
        assert str(path) in render_text(report)

    def test_sigterm_makes_worker_dump_its_own_artifact(self, tmp_path):
        emu = ShardedEmulator(
            n_workers=2, seed=0, flight_dir=str(tmp_path)
        )
        line_topology(emu, n=2)
        emu.start()
        emu.flush(0.1)  # barrier: both workers are fully up
        victim = emu._procs[1]
        victim.terminate()  # SIGTERM: the worker's hook gets to run
        worker_artifact = tmp_path / "poem-flight-worker-1.json"
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if worker_artifact.exists():
                try:
                    load_flight(worker_artifact)
                    break
                except ValueError:
                    pass  # mid-write
            time.sleep(0.05)
        emu.stop()
        artifact = load_flight(worker_artifact)
        assert artifact["role"] == "worker-1"
        assert any(
            e["event"] == "worker-start" for e in artifact["events"]
        )

    def test_poisoned_worker_ships_artifact_path_to_parent(
        self, tmp_path
    ):
        """A worker that dies of a pipeline error dumps its artifact and
        ships the path on the worker_error frame; the parent remembers
        it in crash_artifacts and health()."""
        from repro.net.messages import encode_message

        emu = ShardedEmulator(
            n_workers=2, seed=0, flight_dir=str(tmp_path)
        )
        line_topology(emu, n=2)
        emu.start()
        emu._conns[0].send_bytes(encode_message({"op": "bogus"}))
        with pytest.raises(ClusterError):
            emu.flush(1.0)
        health = emu.health()
        emu.stop()
        assert 0 in emu.crash_artifacts
        worker_artifact = emu.crash_artifacts[0]
        assert load_flight(worker_artifact)["role"] == "worker-0"
        assert health["cluster"]["crash_artifacts"][0] == worker_artifact

    def test_crash_before_parent_send_still_ships_artifact(self, tmp_path):
        """A worker that has already exited when the parent next sends
        to it: the send hits the closed pipe, and the worker_error frame
        still queued in that pipe must reach crash_artifacts before the
        ClusterError is raised, not only at stop()."""
        from repro.net.messages import encode_message

        emu = ShardedEmulator(
            n_workers=2, seed=0, flight_dir=str(tmp_path)
        )
        line_topology(emu, n=2)
        emu.start()
        emu._conns[0].send_bytes(encode_message({"op": "bogus"}))
        emu._procs[0].join(timeout=10.0)
        assert not emu._procs[0].is_alive()
        try:
            with pytest.raises(ClusterError):
                emu.flush(1.0)
            health = emu.health()
            assert 0 in emu.crash_artifacts
            worker_artifact = emu.crash_artifacts[0]
            assert load_flight(worker_artifact)["role"] == "worker-0"
            assert health["cluster"]["crash_artifacts"][0] == worker_artifact
        finally:
            emu.stop()

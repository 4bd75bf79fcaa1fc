"""Acceptance tests for cluster-wide observability: cross-process trace
propagation, merged worker telemetry (across a restart too), and the
crash flight recorder.

These spawn real worker processes (small loads — 1-core CI boxes run
them too).
"""

import time
import urllib.request

import pytest

from repro.analysis import load_dataset
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
        dataset = load_dataset(recorder)
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

    @pytest.mark.parametrize("before, after", [(10, 4), (3, 12)])
    def test_totals_survive_a_stop_start_restart(self, before, after):
        """Workers born by a restart count from zero, yet the parent's
        totals, deadline buckets, shard series and run summary cover
        the whole run — also when the new workers' first count already
        exceeds the retired ones' last."""
        telemetry = Telemetry()
        emu = ShardedEmulator(n_workers=1, seed=0, telemetry=telemetry)
        hosts = line_topology(emu, n=2)
        ring_load(hosts, frames=before)
        emu.flush(0.5)
        emu.collect()
        emu.stop()
        emu.start()
        for i in range(after):
            hosts[0].transmit(
                hosts[1].node_id, b"x", channel=ChannelId(1),
                t=0.6 + 0.01 * i,
            )
        emu.flush(1.0)
        emu.collect()
        health = emu.health()
        emu.record_run_summary()
        emu.stop()

        total = before + after
        assert health["engine"]["ingested"] == total
        assert health["deadline"]["on_time"] == total
        shard = health["cluster"]["per_worker"][0]
        assert shard["shard_ingested"] == after  # the live worker's own
        assert f"shard 0: ingested {after}" in format_health(health)
        reg = telemetry.registry
        assert reg.get("poem_engine_ingested_total").value() == total
        assert reg.get("poem_shard_ingested_total").labels("0").value() \
            == total
        assert reg.get("poem_shard_queue_depth").labels("0").value() == 0
        assert reg.get("poem_shard_busy_fraction").labels("0").value() \
            == shard["busy_fraction"] > 0
        text = render_text(analyze(emu.recorder))
        assert "recorded at shutdown — consistent" in text


    def test_profiles_survive_a_stop_start_restart(self):
        """A worker born by a restart profiles from zero: a stack seen 3
        times before ``stop()`` and 12 times by the new worker merges to
        15, not 12."""
        emu = ShardedEmulator(n_workers=1, seed=0, profile_hz=50.0)
        key = "worker-0;MainThread;restart_probe"
        try:
            emu.start()
            emu.profiler.fold_remote(0, {"stacks": {key: 3}})
            emu.stop()
            emu.start()
            emu.profiler.fold_remote(0, {"stacks": {key: 12}})
            assert emu.profiler.folded()[key] == 15
        finally:
            emu.stop()


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

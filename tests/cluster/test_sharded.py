"""Integration tests for the multi-process sharded forwarding plane.

These spawn real worker processes (small loads — they run on 1-core CI
boxes too).  The seeded-equivalence test is the PR's core contract: a
1-worker sharded run must reproduce the in-process emulator's record
stream exactly, ids and timestamps included.
"""

import pytest

from repro.analysis.anomalies import (
    Thresholds,
    detect_cluster_merge_inversions,
)
from repro.analysis import RunDataset, load_dataset
from repro.analysis.report import analyze
from repro.cluster import ShardedEmulator
from repro.core.geometry import Vec2
from repro.core.ids import BROADCAST_NODE, ChannelId, NodeId
from repro.core.packet import PacketRecord
from repro.core.scene import SceneEvent
from repro.core.server import InProcessEmulator
from repro.errors import ClusterError
from repro.models.link import (
    BandwidthModel,
    DelayModel,
    LinkModel,
    PacketLossModel,
)
from repro.models.mobility import Bounds, RandomWaypoint
from repro.models.radio import Radio, RadioConfig
from repro.net.messages import decode_message, encode_message
from repro.obs.telemetry import Telemetry
from repro.stats.report import format_health

LOSSY_LINK = LinkModel(
    loss=PacketLossModel(p0=0.05, p1=0.4, d0=0.5, radio_range=150.0),
    bandwidth=BandwidthModel(peak=2e6, edge=5e5, radio_range=150.0),
    delay=DelayModel(base=0.003, per_unit=1e-5),
)
LOSSY_RADIOS = RadioConfig.of(
    [Radio(channel=ChannelId(1), range=150.0, link=LOSSY_LINK)]
)


def record_tuple(r: PacketRecord) -> tuple:
    return (
        r.record_id, r.seqno, r.source, r.destination, r.sender,
        r.receiver, r.channel, r.kind, r.size_bits, r.t_origin,
        r.t_receipt, r.t_forward, r.t_delivered, r.drop_reason,
    )


def line_topology(emu, n=4, spacing=60.0, radios=None):
    radios = radios if radios is not None else LOSSY_RADIOS
    return [
        emu.add_node(Vec2(spacing * i, 0.0), radios, label=f"n{i}")
        for i in range(n)
    ]


MESH_RADIOS = RadioConfig.single(1, 150.0)  # the default, lossless link


def mobility_tick_runs(*, n_workers, radios, retune_at=None, steps=30):
    """The same seeded mobile script on an ``InProcessEmulator`` and on a
    cluster; returns ``(reference records, cluster records, the scene
    ops the cluster shipped)``.  At step ``retune_at`` node 1 leaves the
    channel between two ticks."""
    step = 0.01
    # One more tick drains the last fan-out; stopping on the tick grid
    # keeps both scenes' waypoint draws in the same order.
    end = step * (steps + 1)
    area = Bounds(0.0, 0.0, 240.0, 120.0)

    senders = (0, 2, 3)  # node 1 only listens: it may leave the channel

    def populate(emu):
        hosts = line_topology(emu, radios=radios)
        for host in hosts:
            emu.scene.set_mobility(
                host.node_id, RandomWaypoint(area, 100.0, 400.0)
            )
        return hosts

    def mutate(emu, hosts, i):
        if i == retune_at:
            emu.scene.set_radio_channel(hosts[1].node_id, 0, ChannelId(2))

    ref_emu = InProcessEmulator(seed=42)
    hosts = populate(ref_emu)
    ref_emu.enable_mobility_tick(step)
    for i in range(steps):
        ref_emu.run_until(step * (i + 1))
        mutate(ref_emu, hosts, i)
        hosts[senders[i % 3]].transmit(
            BROADCAST_NODE, b"x" * 32, channel=ChannelId(1)
        )
    ref_emu.run_until(end)
    ref = ref_emu.recorder.packets()

    ops = []
    with ShardedEmulator(n_workers=n_workers, seed=42) as emu:
        shosts = populate(emu)
        ship = emu._send_to
        emu._send_to = lambda worker, data: (
            ops.append(scene_op(data)) if worker == 0 else None,
            ship(worker, data),
        )
        for i in range(steps):
            emu.flush(step * (i + 1))  # the tick: move, then re-ship
            mutate(emu, shosts, i)
            shosts[senders[i % 3]].transmit(
                BROADCAST_NODE, b"x" * 32, channel=ChannelId(1),
                t=step * (i + 1),
            )
        emu.flush(end)
        emu.collect()
        got = emu.recorder.packets()
        positions = [emu.scene.position(h.node_id) for h in shosts]

    assert positions == [ref_emu.scene.position(h.node_id) for h in hosts]
    return ref, got, [op for op in ops if op is not None]


def scene_op(data: bytes):
    """``scene_snapshot`` / ``scene_moves`` for a scene frame, else None."""
    if data[:1] != b"{":
        return None
    op = decode_message(data)["op"]
    return op if op.startswith("scene_") else None


def scripted_load(hosts, frames=40, interval=0.01):
    """Ring unicast at distinct origin stamps (no clock-tie ambiguity)."""
    n = len(hosts)
    for i in range(frames):
        hosts[i % n].transmit(
            hosts[(i + 1) % n].node_id,
            b"x" * 32,
            channel=ChannelId(1),
            t=interval * (i + 1),
        )


class TestPipeline:
    def test_delivery_across_workers(self):
        with ShardedEmulator(n_workers=2, seed=7) as emu:
            hosts = line_topology(emu, n=4, spacing=50.0)
            scripted_load(hosts, frames=24)
            report = emu.flush(1.0)
            records = emu.collect()
        assert report["ingested"] == 24
        delivered = [r for r in records if r.t_delivered is not None]
        assert delivered
        # Parent re-ids the merged stream: unique and monotone from 1.
        assert [r.record_id for r in records] == list(
            range(1, len(records) + 1)
        )
        # And the merge is event-time monotone (what the forensics
        # cross-shard detector will verify from the recording alone).
        times = [
            r.t_delivered or r.t_forward or r.t_receipt for r in records
        ]
        assert times == sorted(times)

    def test_seeded_equivalence_with_in_process(self):
        """1-worker cluster == InProcessEmulator, record for record."""
        ref_emu = InProcessEmulator(seed=42)
        hosts = line_topology(ref_emu)
        for i in range(40):
            ref_emu.run_until(0.01 * (i + 1))
            hosts[i % 4].transmit(
                hosts[(i + 1) % 4].node_id, b"x" * 32, channel=ChannelId(1)
            )
        ref_emu.run_until(2.0)
        ref = ref_emu.recorder.packets()

        with ShardedEmulator(n_workers=1, seed=42) as emu:
            shosts = line_topology(emu)
            scripted_load(shosts, frames=40)
            emu.flush(2.0)
            emu.collect()
            got = emu.recorder.packets()

        assert len(ref) == len(got) == 40
        assert [record_tuple(r) for r in ref] == [
            record_tuple(g) for g in got
        ]

    def test_seeded_equivalence_under_a_mobility_tick(self):
        """The same contract with scene writes beside the timers: every
        node is on RandomWaypoint, the in-process stack applies it on a
        mobility tick, the cluster at a per-step ``flush`` whose
        multi-move ``scene_moves`` frame the worker absorbs as one
        vectorized tick, and every step broadcasts, so worker and
        in-process wake-ups are coalesced the same way (``arm_flush`` on
        both).  Record for record, ``record_id`` included."""
        ref, got, ops = mobility_tick_runs(n_workers=1, radios=LOSSY_RADIOS)
        assert ops.count("scene_snapshot") == 1  # the bootstrap alone
        assert ops.count("scene_moves") >= 25  # one delta per tick
        assert len(ref) > 2 * 30  # fan-outs, not single receivers
        assert [record_tuple(r) for r in ref] == [
            record_tuple(g) for g in got
        ]

    def test_two_workers_match_in_process_on_a_lossless_mesh(self):
        """n=2: shards draw their own RNG streams and ids follow the
        merge, so the contract is the record multiset — exact on
        lossless links."""
        ref, got, _ops = mobility_tick_runs(n_workers=2, radios=MESH_RADIOS)
        assert len(ref) > 2 * 30
        assert sorted(record_tuple(r)[1:] for r in ref) == sorted(
            record_tuple(g)[1:] for g in got
        )
        assert [g.record_id for g in got] == list(range(1, len(got) + 1))

    def test_retune_between_move_batches_falls_back_to_a_snapshot(self):
        """A retune cannot ride a moves frame: the cluster re-ships a
        full snapshot for it and goes back to deltas afterwards, with
        the records still equal to the in-process run's."""
        ref, got, ops = mobility_tick_runs(
            n_workers=1, radios=LOSSY_RADIOS, retune_at=12
        )
        after_bootstrap = ops[1:]
        at = after_bootstrap.index("scene_snapshot")
        assert "scene_moves" in after_bootstrap[:at]
        assert "scene_moves" in after_bootstrap[at + 1:]
        assert [record_tuple(r) for r in ref] == [
            record_tuple(g) for g in got
        ]

    def test_multi_worker_run_is_reproducible(self):
        def run():
            with ShardedEmulator(n_workers=4, seed=11) as emu:
                hosts = line_topology(emu, n=6, spacing=40.0)
                scripted_load(hosts, frames=30)
                emu.flush(2.0)
                return [record_tuple(r) for r in emu.collect()]

        assert run() == run()

    def test_broadcast_fanout(self):
        with ShardedEmulator(n_workers=2, seed=3) as emu:
            hosts = line_topology(
                emu, n=3, spacing=50.0, radios=RadioConfig.single(1, 200.0)
            )
            hosts[0].transmit(
                BROADCAST_NODE, b"beacon", channel=ChannelId(1), t=0.01
            )
            emu.flush(1.0)
            records = emu.collect()
        receivers = {r.receiver for r in records if r.t_delivered is not None}
        assert receivers == {hosts[1].node_id, hosts[2].node_id}


class TestSceneReplication:
    def test_mid_run_move_reaches_workers(self):
        radios = RadioConfig.single(1, 100.0)
        with ShardedEmulator(n_workers=2, seed=5) as emu:
            a, b = line_topology(emu, n=2, spacing=50.0, radios=radios)
            a.transmit(b.node_id, b"near", channel=ChannelId(1), t=0.01)
            # Mutate the parent scene: b walks out of range.  No flush in
            # between — the dirty flag must re-ship the snapshot before
            # the next frame is forwarded.
            emu.scene.move_node(b.node_id, Vec2(5000.0, 0.0))
            a.transmit(b.node_id, b"far", channel=ChannelId(1), t=0.02)
            emu.flush(1.0)
            records = emu.collect()
        by_seqno = {r.seqno: r for r in records if r.source == a.node_id}
        assert by_seqno[1].t_delivered is not None
        assert by_seqno[2].t_delivered is None

    def test_quarantine_reaches_workers(self):
        """Quarantine does NOT bump the scene version — replication must
        trigger on scene events, or this frame would still deliver."""
        radios = RadioConfig.single(1, 100.0)
        with ShardedEmulator(n_workers=2, seed=5) as emu:
            a, b = line_topology(emu, n=2, spacing=50.0, radios=radios)
            a.transmit(b.node_id, b"ok", channel=ChannelId(1), t=0.01)
            emu.flush(0.5)  # frame 1 fully delivered before the event
            emu.scene.quarantine_node(b.node_id)
            a.transmit(b.node_id, b"stale", channel=ChannelId(1), t=0.6)
            emu.flush(1.0)
            records = emu.collect()
        by_seqno = {r.seqno: r for r in records if r.source == a.node_id}
        assert by_seqno[1].t_delivered is not None
        assert by_seqno[2].t_delivered is None


class TestObservability:
    def test_per_worker_telemetry_and_health(self):
        telemetry = Telemetry()
        with ShardedEmulator(
            n_workers=2, seed=9, telemetry=telemetry
        ) as emu:
            hosts = line_topology(emu, n=4, spacing=50.0)
            scripted_load(hosts, frames=20)
            emu.flush(1.0)
            health = emu.health()
            pane = format_health(health)
        cluster = health["cluster"]
        assert cluster["n_workers"] == 2
        assert cluster["alive"] == 2
        assert cluster["shard_loads"] == [2, 2]
        per_worker = cluster["per_worker"]
        assert sum(w["shard_ingested"] for w in per_worker) == 20
        assert all(0.0 <= w["busy_fraction"] <= 1.0 for w in per_worker)
        assert health["engine"]["ingested"] == 20
        # The health pane renders one line per shard.
        assert "cluster         : 2 workers (2 alive)" in pane
        assert "shard 0:" in pane and "shard 1:" in pane
        # And the metric families carry per-shard series.
        text = telemetry.render()
        assert 'poem_shard_ingested_total{shard="0"}' in text
        assert 'poem_shard_queue_depth{shard="1"}' in text
        assert "poem_shard_busy_fraction" in text

    def test_flush_report_aggregates(self):
        with ShardedEmulator(n_workers=2, seed=1) as emu:
            hosts = line_topology(emu, n=2, spacing=50.0)
            hosts[0].transmit(
                hosts[1].node_id, b"x", channel=ChannelId(1), t=0.01
            )
            report = emu.flush(0.5)
        assert report["time"] == pytest.approx(0.5)
        assert report["ingested"] == 1
        assert len(report["per_worker"]) == 2


class TestFailureAndLifecycle:
    def test_worker_error_surfaces_as_cluster_error(self):
        emu = ShardedEmulator(n_workers=2, seed=0)
        line_topology(emu, n=2)
        emu.start()
        # Poison one worker with an unknown control op: it reports a
        # worker_error frame before dying, and the next barrier raises.
        emu._conns[0].send_bytes(encode_message({"op": "bogus"}))
        with pytest.raises(ClusterError, match="bogus"):
            emu.flush(1.0)
        emu.stop()  # must not hang on the dead worker

    def test_transmit_validates_channel(self):
        with ShardedEmulator(n_workers=1, seed=0) as emu:
            hosts = line_topology(emu, n=2)
            from repro.errors import ProtocolError

            with pytest.raises(ProtocolError):
                hosts[0].transmit(
                    hosts[1].node_id, b"x", channel=ChannelId(9), t=0.01
                )

    def test_context_manager_stops_workers(self):
        emu = ShardedEmulator(n_workers=2, seed=0)
        with emu:
            line_topology(emu, n=2)
            procs = list(emu._procs)
            assert all(p.is_alive() for p in procs)
        assert not emu.started
        assert all(not p.is_alive() for p in procs)
        emu.stop()  # idempotent


class TestForensics:
    def test_analyze_sharded_run_is_coherent(self):
        """Acceptance: a 4-worker sharded run's recording passes the
        forensics pass with no cross-shard timestamp inversions and
        self-consistent totals."""
        with ShardedEmulator(n_workers=4, seed=13) as emu:
            hosts = line_topology(emu, n=8, spacing=50.0)
            scripted_load(hosts, frames=64)
            emu.flush(2.0)
            emu.collect()
            emu.record_run_summary()
            recorder = emu.recorder
        dataset = load_dataset(recorder)
        assert dataset.cluster_run is not None
        assert dataset.cluster_run["n_workers"] == 4
        report = analyze(recorder)
        kinds = {a.kind for a in report.anomalies}
        assert "cross-shard-inversion" not in kinds
        assert "timestamp-inversion" not in kinds
        assert report.summary_consistent is True

    def test_cross_shard_detector_fires_on_incoherent_merge(self):
        records = [
            PacketRecord(
                record_id=1, seqno=1, source=1, destination=2, sender=1,
                receiver=2, channel=1, kind="data", size_bits=8,
                t_origin=0.5, t_receipt=0.5, t_forward=0.51,
                t_delivered=0.51, drop_reason=None,
            ),
            # Merge-order violation: earlier event, later record id.
            PacketRecord(
                record_id=2, seqno=2, source=1, destination=2, sender=1,
                receiver=2, channel=1, kind="data", size_bits=8,
                t_origin=0.1, t_receipt=0.1, t_forward=0.11,
                t_delivered=0.11, drop_reason=None,
            ),
        ]
        cluster_event = SceneEvent(
            time=1.0, kind="cluster-run", node=NodeId(-1),
            details={"n_workers": 2},
        )
        bad = RunDataset(records, [cluster_event], [], [])
        findings = detect_cluster_merge_inversions(bad, Thresholds())
        assert len(findings) == 1
        assert findings[0].severity == "critical"
        assert findings[0].data["count"] == 1
        # Single-process recordings (no cluster-run event) are exempt:
        # their log is in ingest order by design.
        single = RunDataset(records, [], [], [])
        assert detect_cluster_merge_inversions(single, Thresholds()) == []

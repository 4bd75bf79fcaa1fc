"""Microbenchmarks of the hot paths (not tied to a paper figure).

These guard the emulator's own performance: ingest throughput, schedule
operations, neighbor rebuilds, framing, and wire codecs.  Useful when
optimizing — the experiment benches are too coarse to localize a
regression.
"""

import multiprocessing
import socket
import time

import numpy as np

from repro.cluster import ShardedEmulator
from repro.core.clock import VirtualClock
from repro.core.engine import ForwardingEngine
from repro.core.geometry import Vec2
from repro.core.ids import BROADCAST_NODE, ChannelId, NodeId
from repro.core.neighbor import ChannelIndexedNeighborTables
from repro.core.packet import Packet, PacketRecord
from repro.core.recording import MemoryRecorder
from repro.core.scene import Scene
from repro.core.scheduler import ForwardSchedule, ScheduledPacket
from repro.core.server import InProcessEmulator
from repro.models.link import LinkModel, PacketLossModel
from repro.models.mobility import Bounds, RandomWaypoint
from repro.models.radio import RadioConfig
from repro.net import framing, messages
from repro.obs.telemetry import Telemetry


def build_engine(n_nodes=50, telemetry=None):
    scene = Scene(seed=0)
    rng = np.random.default_rng(0)
    for i in range(1, n_nodes + 1):
        scene.add_node(
            NodeId(i),
            Vec2(float(rng.uniform(0, 500)), float(rng.uniform(0, 500))),
            RadioConfig.single(1, 150.0),
        )
    clock = VirtualClock()
    engine = ForwardingEngine(
        scene, ChannelIndexedNeighborTables(scene), clock,
        MemoryRecorder(), rng=np.random.default_rng(0),
        telemetry=telemetry,
    )
    return engine, scene, clock


def _broadcast_ingest(benchmark, telemetry):
    engine, scene, clock = build_engine(50, telemetry=telemetry)
    packet = Packet(
        source=NodeId(1), destination=BROADCAST_NODE, payload=b"x",
        size_bits=512, seqno=1, channel=ChannelId(1), t_origin=0.0,
    )

    def ingest():
        engine.ingest(NodeId(1), packet)
        engine.schedule.drain()

    benchmark(ingest)


def test_engine_broadcast_ingest(benchmark):
    """One broadcast ingest on a 50-node scene (lookup + N loss draws +
    N schedule pushes) — with telemetry **enabled** at the default
    1-in-128 sampling.

    The committed ``BENCH_micro.json`` baseline for this name predates
    the telemetry layer, so the regression gate on it *is* the
    observability overhead budget: enabled telemetry must stay within
    tolerance of the bare-engine baseline.
    """
    _broadcast_ingest(benchmark, Telemetry())


def test_engine_broadcast_ingest_bare(benchmark):
    """The same broadcast ingest with telemetry stripped
    (``telemetry=None``): the floor the enabled number is judged
    against, and the guard that the pure hot path itself has not
    regressed."""
    _broadcast_ingest(benchmark, None)


def test_engine_unicast_pipeline(benchmark):
    """Full ingest → flush round trip for one unicast frame."""
    engine, scene, clock = build_engine(10)
    engine.deliver = lambda r, p: None
    packet = Packet(
        source=NodeId(1), destination=NodeId(2), payload=b"x",
        size_bits=512, seqno=1, channel=ChannelId(1), t_origin=0.0,
    )
    scene.move_node(NodeId(2), Vec2(scene.position(NodeId(1)).x + 10,
                                    scene.position(NodeId(1)).y))
    # Every round's frame falls due at the same instant; flushing there
    # delivers it on time (a far-future flush would saturate the overload
    # controller and time the deadline-shed path instead).
    engine.ingest(NodeId(1), packet)
    due = engine.next_forward_time()
    assert engine.flush_due(now=due) == 1

    def roundtrip():
        engine.ingest(NodeId(1), packet)
        engine.flush_due(now=due)

    benchmark(roundtrip)


def test_schedule_push_pop(benchmark):
    schedule = ForwardSchedule()
    packet = Packet(
        source=NodeId(1), destination=NodeId(2), payload=b"x",
        size_bits=8, seqno=1, channel=ChannelId(1),
    )
    entry = ScheduledPacket(t_forward=1.0, packet=packet,
                            receivers=(NodeId(2),), sender=NodeId(1))

    def push_pop():
        for _ in range(100):
            schedule.push(entry)
        schedule.pop_due(2.0)

    benchmark(push_pop)


def test_scheduler_p99_lag_under_load(benchmark):
    """Tail wakeup lag of the real-time wait under a dense deadline
    train: 200 entries 100 µs apart, harvested against the real clock
    the way the server's loop does it — ``wait_ready`` (the select that
    sleeps short of the head deadline and polls across the rest), read
    the clock, ``wait_due``.

    The benchmark *time* is secondary; the gated figure is
    ``extra_info["p99_lag_us"]`` — the 99th-percentile delay between an
    entry's deadline and its actual harvest.  The harvest is exact, as
    the engine's is: no entry is taken before its deadline, so every
    lag is a real one.  ``check_regression.py`` gates ``p99_*`` keys
    absolutely, never normalized, so this is the soft-real-time
    envelope guard.
    """
    packet = Packet(
        source=NodeId(1), destination=NodeId(2), payload=b"x",
        size_bits=8, seqno=1, channel=ChannelId(1),
    )
    lags: list[float] = []

    def harvest_train():
        s = ForwardSchedule()
        t0 = time.monotonic() + 0.002
        for i in range(200):
            s.push(ScheduledPacket(
                t_forward=t0 + i * 1e-4, packet=packet,
                receivers=(NodeId(2),), sender=NodeId(1),
            ))
        harvested = 0
        while harvested < 200:
            s.wait_ready(time.monotonic(), 0.05)
            due = s.wait_due(time.monotonic())
            now = time.monotonic()
            for e in due:
                lags.append(now - e.t_forward)
            harvested += len(due)

    benchmark.pedantic(harvest_train, rounds=5, iterations=1,
                       warmup_rounds=1)
    arr = np.sort(np.asarray(lags))
    p99 = float(arr[min(int(len(arr) * 0.99), len(arr) - 1)])
    benchmark.extra_info["p99_lag_us"] = round(p99 * 1e6, 2)
    benchmark.extra_info["cpu_count"] = multiprocessing.cpu_count()


def test_neighbor_full_rebuild_100(benchmark):
    """``rebuild()`` of a 100-node channel table (rows come on first read)."""
    scene = Scene(seed=1)
    rng = np.random.default_rng(1)
    for i in range(1, 101):
        scene.add_node(
            NodeId(i),
            Vec2(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000))),
            RadioConfig.single(1, 200.0),
        )
    tables = ChannelIndexedNeighborTables(scene)
    benchmark(tables.rebuild)


def mobile_lattice(link=None):
    """64 RandomWaypoint nodes on one channel, each roaming a 60x60 cell
    around its home on an 8x8 lattice (as in ``benchmarks/e2e``'s mobile
    mesh), and the neighbor tables subscribed to the scene."""
    scene = Scene(bounds=Bounds(0.0, 0.0, 480.0, 480.0), seed=2)
    for i in range(64):
        node = NodeId(i + 1)
        x, y = 30.0 + 60.0 * (i % 8), 30.0 + 60.0 * (i // 8)
        scene.add_node(node, Vec2(x, y), RadioConfig.single(1, 150.0, link))
        cell = Bounds(x - 30.0, y - 30.0, x + 30.0, y + 30.0)
        scene.set_mobility(node, RandomWaypoint(cell, 5.0, 15.0))
    return scene, ChannelIndexedNeighborTables(scene)


def test_mobility_tick_64(benchmark):
    """One mobility tick: 64 RandomWaypoint nodes on one channel, every
    one of them moving, ``advance_time(+0.05)`` — trajectory evaluation,
    64 ``node-moved`` events and the neighbor tables absorbing them.

    Each node roams a cell around its lattice home, so density — and the
    work per tick — does not drift with the emulated time the timer
    happens to run through.
    """
    scene, _ = mobile_lattice()

    def tick():
        moved = scene.advance_time(scene.time + 0.05)
        assert len(moved) == 64

    benchmark(tick)
    benchmark.extra_info["cpu_count"] = multiprocessing.cpu_count()


def test_cold_row_plan_64(benchmark):
    """One cold row and its link plan on the mobile lattice of
    ``test_mobility_tick_64`` under Table 3 loss: ``row()`` then
    ``link_plan()`` for an inner node, what the engine pays for a
    sender's first frame after a tick moved its row."""
    link = LinkModel(
        loss=PacketLossModel(p0=0.1, p1=0.9, d0=50.0, radio_range=200.0)
    )
    scene, tables = mobile_lattice(link)
    scene.advance_time(0.05)
    table = tables._tables[ChannelId(1)]
    i = table.slot[NodeId(28)]

    def cold():
        return table.row(i).link_plan()

    assert len(cold()[0]) >= 12
    benchmark(cold)
    benchmark.extra_info["cpu_count"] = multiprocessing.cpu_count()


def test_count_cold_fanouts_per_100_moves(benchmark):
    """One node jiggles, the whole mesh keeps transmitting: the 8 x 4
    lattice of ``benchmarks/e2e``'s ``sharded_mesh`` (spacing 60, range
    150), a single move of node ``step % 32`` to 0.5 either side of its
    home, then a read of all 32 fan-outs — what the engine does for the
    next frame of every sender.

    ``count_cold_fanouts_per_100_moves`` counts, over a fixed pass of
    100 such steps on a fresh scene, the reads that came back as a new
    object: the mover's row plus the row of every sender that has it in
    range, Σ(1 + deg(mover)) = 1329, exactly.  3200 when a move turned
    every row of its channel cold.
    """
    channel = ChannelId(1)
    homes = [(30.0 + 60.0 * (i % 8), 30.0 + 60.0 * (i // 8)) for i in range(32)]

    def build():
        scene = Scene(seed=5)
        for i, (x, y) in enumerate(homes):
            scene.add_node(NodeId(i + 1), Vec2(x, y), RadioConfig.single(1, 150.0))
        tables = ChannelIndexedNeighborTables(scene)
        nodes = scene.node_ids()
        held = [tables.fanout(node, channel) for node in nodes]
        step = [0]

        def one_step():
            k = step[0] % 32
            x, y = homes[k]
            side = 0.5 if (step[0] // 32) % 2 == 0 else -0.5
            step[0] += 1
            scene.move_node(nodes[k], Vec2(x + side, y))
            cold = 0
            for i, node in enumerate(nodes):
                fan = tables.fanout(node, channel)
                if fan is not held[i]:
                    held[i] = fan
                    cold += 1
            return cold

        return one_step

    one_step = build()
    cold = sum(one_step() for _ in range(100))
    assert cold == 1329
    benchmark.extra_info["count_cold_fanouts_per_100_moves"] = cold
    benchmark.extra_info["cpu_count"] = multiprocessing.cpu_count()

    benchmark(build())


def test_virtual_round_64(benchmark):
    """One beacon round of a 64-node static mesh through
    ``InProcessEmulator``, ``run_for`` included: 64 broadcasts under
    Table 3 loss, the virtual-clock wake-ups that deliver them, and the
    batched records — the shape of ``benchmarks/e2e``'s
    ``inproc_static_mesh``.

    ``count_timers_per_1k_deliveries`` is counted over a fixed pass of
    ten rounds on a fresh seeded emulator, so it repeats exactly whatever
    number of rounds the timer then runs: ``VirtualClock.call_at`` calls
    per 1000 delivered frames (1000 when every scheduled entry armed its
    own timer, one call per round since ``ForwardingEngine.arm_flush``).
    ``count_schedule_entries_per_1k_deliveries`` counts, over the same
    pass, the entries ``ForwardSchedule.push_many`` takes per 1000
    delivered frames: 1000 when every (packet, receiver) pair was its
    own entry, about one per frame since a fan-out group is one entry.
    ``count_packet_copies_per_frame`` counts ``Packet._copy`` calls per
    ingested frame (3 when a frame was stamped at receipt, at forward
    and at delivery; 2 when a group's copy carried both ingest stamps;
    1 since a schedule entry carries the stamps and the one copy is
    built at delivery),
    and ``count_record_rows_per_1k_records`` the rows handed to
    ``record_many`` per 1000 records (1000 when every record was a row
    of its own; a delivered group and a run of drops are one row each).
    """
    link = LinkModel(
        loss=PacketLossModel(p0=0.1, p1=0.9, d0=50.0, radio_range=200.0)
    )

    def build():
        emu = InProcessEmulator(seed=3)
        hosts = [
            emu.add_node(
                Vec2(30.0 + 60.0 * (i % 8), 30.0 + 60.0 * (i // 8)),
                RadioConfig.single(1, 150.0, link),
            )
            for i in range(64)
        ]

        def one_round():
            for host in hosts:
                host.transmit(BROADCAST_NODE, b"b" * 64, channel=ChannelId(1))
            emu.run_for(0.1)

        return emu, one_round

    emu, one_round = build()
    armed = [0]
    call_at = emu.clock.call_at
    entries = [0]
    push_many = emu.engine.schedule.push_many

    def counting_call_at(when, fn):
        armed[0] += 1
        return call_at(when, fn)

    def counting_push_many(batch):
        entries[0] += len(batch)
        return push_many(batch)

    copies = [0]
    copy = Packet._copy

    def counting_copy(packet):
        copies[0] += 1
        return copy(packet)

    rows = [0]
    record_many = emu.recorder.record_many

    def counting_record_many(batch):
        rows[0] += len(batch)
        return record_many(batch)

    emu.clock.call_at = counting_call_at
    emu.engine.schedule.push_many = counting_push_many
    emu.recorder.record_many = counting_record_many
    Packet._copy = counting_copy
    try:
        for _ in range(10):
            one_round()
    finally:
        Packet._copy = copy
    assert emu.engine.ingested == 640
    benchmark.extra_info["count_packet_copies_per_frame"] = round(
        copies[0] / emu.engine.ingested, 3
    )
    benchmark.extra_info["count_record_rows_per_1k_records"] = round(
        1000.0 * rows[0] / len(emu.recorder), 3
    )
    benchmark.extra_info["count_timers_per_1k_deliveries"] = round(
        1000.0 * armed[0] / emu.engine.forwarded, 3
    )
    benchmark.extra_info["count_schedule_entries_per_1k_deliveries"] = round(
        1000.0 * entries[0] / emu.engine.forwarded, 3
    )
    benchmark.extra_info["cpu_count"] = multiprocessing.cpu_count()

    emu, one_round = build()
    benchmark(one_round)


def test_framing_roundtrip(benchmark):
    """100 frame round trips (pack one 1 KiB frame, feed it to a
    ``FrameBuffer``) per call.

    Also the regression gate's ``--normalize`` calibrator.  A single
    round trip timed in about 1.5 us, and its min swung 1.6-2.9 us from
    run to run on a shared 2-core host, wider than the gate's 30 %
    tolerance, so every normalized row moved with it; a call of 100
    trips is timed well above the timer's and the host's jitter.
    """
    payload = b"z" * 1024
    buf = framing.FrameBuffer()

    def roundtrip_100():
        for _ in range(100):
            frames = buf.feed(framing.pack_frame(payload))
            assert len(frames) == 1

    benchmark(roundtrip_100)


def test_client_receive_100(benchmark):
    """100 binary ``deliver`` frames already in the socket, read the way
    ``PoEmClient`` reads them: through the ``FrameReader`` of its
    installed socket, one decode per frame.

    ``count_recv_calls_per_100_frames`` counts the ``recv`` calls that
    takes, through the same kind of wrapper the client's
    ``transport_wrapper`` hook installs: 200 when every frame cost a
    header read and a body read, 1 since one read serves every frame
    that arrived with it.
    """
    packet = Packet(
        source=NodeId(1), destination=NodeId(2), payload=b"p" * 16,
        size_bits=512, seqno=7, channel=ChannelId(1), t_origin=1.0,
        t_receipt=1.0, t_forward=1.1, t_delivered=1.1,
    )
    burst = b"".join(
        framing.pack_frame(messages.encode_packet_binary("deliver", packet))
        for _ in range(100)
    )
    a, b = socket.socketpair()
    calls = [0]

    class Counting:
        def recv(self, n):
            calls[0] += 1
            return b.recv(n)

    reader = framing.FrameReader(Counting())

    def receive_100():
        a.sendall(burst)
        for _ in range(100):
            op, got = messages.decode_packet_binary(reader.recv_frame())
        assert op == "deliver" and got.seqno == 7

    try:
        receive_100()
        benchmark.extra_info["count_recv_calls_per_100_frames"] = calls[0]
        benchmark.extra_info["cpu_count"] = multiprocessing.cpu_count()
        benchmark(receive_100)
    finally:
        a.close()
        b.close()


def test_packet_wire_codec_binary(benchmark):
    """The 0xB1 packet codec: one encode + decode of a 256-B packet."""
    packet = Packet(
        source=NodeId(1), destination=NodeId(2), payload=b"p" * 256,
        size_bits=2048, seqno=7, channel=ChannelId(1), t_origin=1.0,
    )

    def codec():
        messages.decode_packet_binary(
            messages.encode_packet_binary("packet", packet)
        )

    benchmark(codec)


# -- sharded cluster: what the worker pipes carry -------------------------------
#
# Both benches drive a real 2-worker ``ShardedEmulator`` through its
# public API only, so the same file measures any revision of the cluster.


def _cluster_mesh(n_nodes):
    """A started 2-worker cluster over a lossless ``8 x n/8`` lattice."""
    emu = ShardedEmulator(n_workers=2, seed=4)
    hosts = [
        emu.add_node(
            Vec2(30.0 + 60.0 * (i % 8), 30.0 + 60.0 * (i // 8)),
            RadioConfig.single(1, 150.0),
        )
        for i in range(n_nodes)
    ]
    emu.start()
    return emu, hosts


def test_cluster_collect_20k(benchmark):
    """``collect()`` of ~20k delivered records held by two workers: the
    workers' record encode, the pipe, the parent's decode, the
    event-time merge, the record builds and ``record_many``.  The
    traffic that produces the records is set-up, not timed.

    ``count_record_builds_per_record`` counts ``PacketRecord``
    constructions in the parent over one such collect: 2 when the merge
    re-built every decoded record to give it its id, 1 since rows are
    merged first and each record is built once with its final id.
    """
    emu, hosts = _cluster_mesh(32)
    stamp = [0.0]

    def load():
        # 32 senders x 51 rounds; the lattice's fan-out sum is 396.
        for _ in range(51):
            stamp[0] += 0.01
            for host in hosts:
                host.transmit(
                    BROADCAST_NODE, b"b" * 64, channel=ChannelId(1),
                    t=stamp[0],
                )
        emu.flush(stamp[0] + 0.005)

    try:
        built = [0]
        init = PacketRecord.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        load()
        PacketRecord.__init__ = counting_init
        try:
            records = emu.collect()
        finally:
            PacketRecord.__init__ = init
        assert len(records) == 51 * 396 == 20196
        benchmark.extra_info["count_record_builds_per_record"] = round(
            built[0] / len(records), 3
        )
        benchmark.extra_info["cpu_count"] = multiprocessing.cpu_count()

        benchmark.pedantic(emu.collect, setup=load, rounds=8)
    finally:
        emu.stop()


def test_cluster_move_sync_64(benchmark):
    """64 scene moves, each followed by a frame that forces the replicas
    coherent first, then the barrier: 64 replications through the
    parent's encode, both pipes and both workers' scene handlers (plus
    the 64 broadcasts that order them) — the shape of
    ``benchmarks/e2e``'s ``sharded_mesh`` step, twice as wide.

    ``count_snapshot_ships_per_100_moves`` counts
    ``Scene.export_snapshot`` calls over a fixed pass of 100 such moves:
    100 when every move re-shipped the whole scene, 0 since moves travel
    as ``scene_moves`` deltas.
    """
    emu, hosts = _cluster_mesh(64)
    stamp = [0.0]
    step = [0]

    def moves(n):
        for _ in range(n):
            k = step[0] % 64
            step[0] += 1
            stamp[0] += 0.01
            jitter = (step[0] % 7) / 7.0
            emu.scene.move_node(
                hosts[k].node_id,
                Vec2(30.0 + 60.0 * (k % 8) + jitter, 30.0 + 60.0 * (k // 8)),
            )
            hosts[k].transmit(
                BROADCAST_NODE, b"b" * 64, channel=ChannelId(1), t=stamp[0]
            )
        emu.flush(stamp[0] + 0.005)

    try:
        shipped = [0]
        export = emu.scene.export_snapshot

        def counting_export():
            shipped[0] += 1
            return export()

        emu.scene.export_snapshot = counting_export
        moves(100)
        del emu.scene.export_snapshot
        benchmark.extra_info["count_snapshot_ships_per_100_moves"] = shipped[0]
        benchmark.extra_info["cpu_count"] = multiprocessing.cpu_count()

        def drain():
            emu.collect()  # keeps the workers' logs from growing

        benchmark.pedantic(
            moves, args=(64,), setup=drain, rounds=20, warmup_rounds=1
        )
    finally:
        emu.stop()

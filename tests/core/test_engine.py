"""Tests for repro.core.engine — the Steps 1–7 pipeline."""

import numpy as np
import pytest

from repro.core.clock import VirtualClock
from repro.core.engine import ForwardingEngine
from repro.core.geometry import Vec2
from repro.core.ids import BROADCAST_NODE, ChannelId, NodeId
from repro.core.neighbor import ChannelIndexedNeighborTables
from repro.core.packet import DropReason, Packet, PacketRecord, packet_row
from repro.core.scene import Scene
from repro.models.link import (
    BandwidthModel,
    DelayModel,
    LinkModel,
    PacketLossModel,
)
from repro.models.radio import Radio, RadioConfig


def n(i):
    return NodeId(i)


def packet(src, dst, *, channel=1, bits=1000, t_origin=None, seq=1):
    return Packet(
        source=n(src), destination=n(dst) if dst >= 0 else BROADCAST_NODE,
        payload=b"p", size_bits=bits, seqno=seq, channel=ChannelId(channel),
        t_origin=t_origin,
    )


def forwarded(entry):
    """A schedule entry's frame with the stamps it carries beside it."""
    return entry.packet.stamped(
        t_receipt=entry.t_receipt, t_forward=entry.t_forward
    )


def build_engine(*, link=None, capacity=None, use_client_stamps=True, seed=0,
                 lag_budget=0.010):
    link = link or LinkModel(
        bandwidth=BandwidthModel(peak=1e6), delay=DelayModel(base=0.01)
    )
    scene = Scene(seed=seed)
    scene.add_node(n(1), Vec2(0, 0), RadioConfig.of([Radio(ChannelId(1), 100.0, link)]))
    scene.add_node(n(2), Vec2(50, 0), RadioConfig.of([Radio(ChannelId(1), 100.0, link)]))
    scene.add_node(n(3), Vec2(90, 0), RadioConfig.of([Radio(ChannelId(1), 100.0, link)]))
    clock = VirtualClock()
    engine = ForwardingEngine(
        scene,
        ChannelIndexedNeighborTables(scene),
        clock,
        rng=np.random.default_rng(seed),
        schedule_capacity=capacity,
        use_client_stamps=use_client_stamps,
        lag_budget=lag_budget,
    )
    return engine, scene, clock


class TestIngest:
    def test_unicast_to_neighbor_scheduled(self):
        engine, _, _ = build_engine()
        entries = engine.ingest(n(1), packet(1, 2, t_origin=0.0))
        assert len(entries) == 1
        assert entries[0].receivers == (n(2),)

    def test_forward_time_formula(self):
        """t_forward = t_receipt + delay + size/bandwidth (Step 3)."""
        engine, _, _ = build_engine()
        (e,) = engine.ingest(n(1), packet(1, 2, bits=1000, t_origin=2.0))
        assert e.t_forward == pytest.approx(2.0 + 0.01 + 1000 / 1e6)

    def test_client_stamp_anchors_receipt(self):
        engine, _, clock = build_engine(use_client_stamps=True)
        clock.call_at(5.0, lambda: None)
        clock.run()  # server clock at 5.0
        (e,) = engine.ingest(n(1), packet(1, 2, t_origin=1.0))
        assert e.t_receipt == 1.0
        assert e.packet.t_receipt is None  # stamped at delivery only

    def test_server_stamp_mode(self):
        engine, _, clock = build_engine(use_client_stamps=False)
        clock.call_at(5.0, lambda: None)
        clock.run()
        (e,) = engine.ingest(n(1), packet(1, 2, t_origin=1.0))
        assert e.t_receipt == 5.0  # JEmu-style anchoring

    def test_broadcast_reaches_all_neighbors(self):
        engine, _, _ = build_engine()
        entries = engine.ingest(n(2), packet(2, -1, t_origin=0.0))
        assert {r for e in entries for r in e.receivers} == {n(1), n(3)}

    def test_non_neighbor_dropped(self):
        engine, scene, _ = build_engine()
        scene.move_node(n(3), Vec2(500, 0))
        entries = engine.ingest(n(1), packet(1, 3, t_origin=0.0))
        assert entries == []
        (rec,) = engine.recorder.packets()
        assert rec.drop_reason == DropReason.NOT_NEIGHBOR

    def test_no_radio_on_channel_dropped(self):
        engine, _, _ = build_engine()
        entries = engine.ingest(n(1), packet(1, 2, channel=9, t_origin=0.0))
        assert entries == []
        (rec,) = engine.recorder.packets()
        assert rec.drop_reason == DropReason.NO_SUCH_CHANNEL

    def test_unknown_sender_dropped(self):
        engine, _, _ = build_engine()
        assert engine.ingest(n(42), packet(42, 2, t_origin=0.0)) == []

    def test_loss_model_drops_recorded(self):
        lossy = LinkModel(
            loss=PacketLossModel(p0=1.0, p1=1.0, radio_range=100.0)
        )
        engine, _, _ = build_engine(link=lossy)
        entries = engine.ingest(n(1), packet(1, 2, t_origin=0.0))
        assert entries == []
        (rec,) = engine.recorder.packets()
        assert rec.drop_reason == DropReason.LOSS_MODEL

    def test_queue_overflow_recorded(self):
        engine, _, _ = build_engine(capacity=1)
        engine.ingest(n(2), packet(2, -1, t_origin=0.0))  # 2 targets, cap 1
        drops = engine.recorder.dropped_packets()
        assert len(drops) == 1
        assert drops[0].drop_reason == DropReason.QUEUE_OVERFLOW

    def test_causality_floor(self):
        """t_forward never precedes t_receipt."""
        fast = LinkModel(bandwidth=BandwidthModel(peak=1e12))
        engine, _, _ = build_engine(link=fast)
        (e,) = engine.ingest(n(1), packet(1, 2, t_origin=3.0))
        assert e.t_forward >= 3.0


class TestDeliver:
    def test_flush_due_delivers_and_records(self):
        engine, _, clock = build_engine()
        delivered = []
        engine.deliver = lambda rcv, p: delivered.append((rcv, p))
        (e,) = engine.ingest(n(1), packet(1, 2, t_origin=0.0))
        clock.call_at(e.t_forward, lambda: None)
        clock.run()
        assert engine.flush_due() == 1
        assert delivered[0][0] == n(2)
        (rec,) = engine.recorder.packets()
        assert not rec.dropped
        assert rec.t_delivered == pytest.approx(e.t_forward)

    def test_flush_due_respects_time(self):
        engine, _, _ = build_engine()
        engine.ingest(n(1), packet(1, 2, t_origin=0.0))
        assert engine.flush_due(now=0.0) == 0  # not yet due
        assert engine.flush_due(now=100.0) == 1

    def test_receiver_removed_mid_flight(self):
        engine, scene, _ = build_engine()
        engine.ingest(n(1), packet(1, 2, t_origin=0.0))
        scene.remove_node(n(2))
        assert engine.flush_due(now=100.0) == 0
        drops = engine.recorder.dropped_packets()
        assert drops and drops[0].drop_reason == DropReason.NODE_REMOVED

    def test_counters(self):
        engine, _, _ = build_engine()
        engine.ingest(n(1), packet(1, 2, t_origin=0.0))
        engine.ingest(n(1), packet(1, 3, channel=9, t_origin=0.0))
        engine.flush_due(now=100.0)
        assert engine.ingested == 2
        assert engine.forwarded == 1
        assert engine.dropped == 1

    def test_record_has_hop_sender(self):
        engine, _, _ = build_engine()
        engine.ingest(n(2), packet(1, 3, t_origin=0.0))  # node 2 relays 1's packet
        engine.flush_due(now=100.0)
        (rec,) = engine.recorder.packets()
        assert rec.sender == 2 and rec.source == 1


def pairs(entries):
    """The (receiver, entry) pairs of scheduled fan-out groups, in
    schedule order."""
    return [(r, e) for e in entries for r in e.receivers]


def records(rows, start=1):
    """The reference records of ``(packet, sender, receiver, reason)``
    outcomes: one ``packet_row`` each, ids counting up from ``start``."""
    return [
        PacketRecord(start + i, *packet_row(p, s, r, reason))
        for i, (p, s, r, reason) in enumerate(rows)
    ]


class TestSharedStampedCopies:
    """One stamped ``Packet`` copy serves every receiver of a fan-out
    that gets the same stamp; the outcome is field-for-field what one
    copy per receiver gives."""

    @staticmethod
    def run_broadcast(link):
        engine, _, _ = build_engine(link=link)
        delivered = []
        engine.deliver = lambda rcv, p: delivered.append((rcv, p))
        entries = engine.ingest(n(2), packet(2, -1, t_origin=1.0))
        assert [r for r, _ in pairs(entries)] == [n(1), n(3)]
        assert engine.flush_due(now=50.0) == 2
        return engine, entries, delivered

    @staticmethod
    def reference(entries, now):
        """The per-receiver-copy pipeline: every stamp on its own copy."""
        base = packet(2, -1, t_origin=1.0).stamped(t_receipt=1.0)
        out = []
        for r, e in pairs(entries):
            fwd = base.stamped(t_forward=e.t_forward)
            out.append((r, fwd, fwd.stamped(t_delivered=now)))
        return out

    def test_constant_bandwidth_broadcast_shares_one_copy(self):
        engine, entries, delivered = self.run_broadcast(None)
        ref = self.reference(entries, 50.0)
        (group,) = entries  # one schedule entry for the whole fan-out
        assert group.receivers == (n(1), n(3))
        assert delivered[0][1] is delivered[1][1]
        assert [(r, forwarded(e)) for r, e in pairs(entries)] == [
            (r, fwd) for r, fwd, _ in ref
        ]
        assert delivered == [(r, done) for r, _, done in ref]
        assert engine.recorder.packets() == records(
            [(done, n(2), r, None) for r, _, done in ref]
        )

    def test_distance_dependent_bandwidth_stamps_each_receiver(self):
        link = LinkModel(
            bandwidth=BandwidthModel(peak=1e6, edge=1e5, radio_range=100.0),
            delay=DelayModel(base=0.01),
        )
        engine, entries, delivered = self.run_broadcast(link)
        ref = self.reference(entries, 50.0)
        # n(1) is 50 away, n(3) is 40 away: different serialization time.
        assert [len(e.receivers) for e in entries] == [1, 1]
        assert entries[0].t_forward > entries[1].t_forward
        # Both groups carry the frame as received; each delivered group
        # gets its own stamped copy.
        assert entries[0].packet is entries[1].packet
        assert delivered[0][1] is not delivered[1][1]
        # pop order is by forward time: n(3) first.
        assert delivered == [(r, done) for r, _, done in reversed(ref)]
        assert [(rec.receiver, rec.t_forward) for rec in engine.recorder.packets()] == [
            (3, entries[1].t_forward), (1, entries[0].t_forward),
        ]

    def test_late_flush_stamps_delivery_time_not_forward_time(self):
        _, entries, delivered = self.run_broadcast(None)
        assert {p.t_delivered for _, p in delivered} == {50.0}
        assert {p.t_forward for _, p in delivered} == {entries[0].t_forward}

    def test_unicasts_of_one_packet_keep_their_own_copies(self):
        engine, _, _ = build_engine()
        delivered = []
        engine.deliver = lambda rcv, p: delivered.append(p)
        original = packet(2, 1, t_origin=1.0)
        (a,) = engine.ingest(n(2), original)
        (b,) = engine.ingest(n(2), original)
        # Entries carry the frame as received; deliveries are copies.
        assert a.packet is original and b.packet is original
        assert original.t_forward is None
        assert engine.flush_due(now=50.0) == 2
        assert delivered[0] == delivered[1]
        assert delivered[0] is not delivered[1]
        assert delivered[0].t_forward == a.t_forward
        assert delivered[0].t_delivered == 50.0


class TestArmFlush:
    """``arm_flush``: the single virtual-clock scan step."""

    def test_one_timer_per_distinct_instant_not_yet_armed(self):
        engine, _, clock = build_engine()
        first = engine.ingest(n(2), packet(2, -1, t_origin=1.0, seq=1))
        engine.arm_flush(first)
        assert len(pairs(first)) == 2 and clock.pending() == 1
        engine.arm_flush(engine.ingest(n(2), packet(2, -1, t_origin=1.0, seq=2)))
        assert clock.pending() == 1  # same forward instant: already armed
        later = engine.ingest(n(2), packet(2, -1, t_origin=2.0, seq=3))
        engine.arm_flush(later)
        assert clock.pending() == 2
        clock.run()
        assert engine.forwarded == 6 and len(engine.schedule) == 0
        assert [r.t_delivered for r in engine.recorder.packets()] == (
            [first[0].t_forward] * 4 + [later[0].t_forward] * 2
        )

    def test_forward_time_already_past_is_armed_at_now(self):
        engine, _, clock = build_engine()
        clock.run_until(5.0)
        entries = engine.ingest(n(1), packet(1, 2, t_origin=1.0))
        assert entries[0].t_forward < 5.0
        engine.arm_flush(entries)
        assert clock.next_event_time() == 5.0
        clock.run()
        assert engine.recorder.packets()[0].t_delivered == 5.0

    def test_instant_is_disarmed_before_its_flush(self):
        """A frame relayed with no latency from inside a delivery, due at
        the instant being flushed, arms that instant again instead of
        being stranded behind a wake-up that is already running.

        Both stamps lag 4 s; a 10 s budget keeps the overload plane
        NOMINAL, so the relayed frame is delivered rather than shed."""
        engine, _, clock = build_engine(lag_budget=10.0)
        clock.run_until(5.0)
        heard = []

        def deliver(receiver, p):
            heard.append((receiver, p.seqno, clock.now()))
            if p.seqno == 1:  # lagging stamp: forward time long past
                engine.arm_flush(
                    engine.ingest(n(2), packet(2, 3, t_origin=1.0, seq=2))
                )

        engine.deliver = deliver
        engine.arm_flush(engine.ingest(n(1), packet(1, 2, t_origin=1.0, seq=1)))
        clock.run()
        assert heard == [(n(2), 1, 5.0), (n(3), 2, 5.0)]
        assert len(engine.schedule) == 0 and engine._armed == set()


class TestBatchRecords:
    """The rows the engine builds — inline per delivery, through
    ``packet_row`` per drop — read back field-for-field as the
    reference records of one ``packet_row`` per outcome."""

    DISTANCE_LINK = LinkModel(
        bandwidth=BandwidthModel(peak=1e6, edge=1e5, radio_range=100.0),
        delay=DelayModel(base=0.01),
    )

    def fan_out(self, link):
        engine, _, _ = build_engine(link=link)
        entries = engine.ingest(n(2), packet(2, -1, t_origin=1.0))
        assert engine.flush_due(now=50.0) == 2
        return engine, entries

    def test_constant_bandwidth_fanout_sharing_one_packet(self):
        engine, entries = self.fan_out(None)
        (group,) = entries
        done = forwarded(group).stamped(t_delivered=50.0)
        assert engine.recorder.packets() == records(
            [(done, n(2), r, None) for r in group.receivers]
        )

    def test_distance_dependent_bandwidth_stamps_per_receiver(self):
        engine, entries = self.fan_out(self.DISTANCE_LINK)
        assert entries[0].t_forward != entries[1].t_forward
        by_time = sorted(entries, key=lambda e: e.t_forward)  # pop order
        assert engine.recorder.packets() == records(
            [
                (forwarded(e).stamped(t_delivered=50.0), n(2), r, None)
                for r, e in pairs(by_time)
            ]
        )

    def test_base_drops_mixed_with_rejected_schedule_suffix(self):
        """One ingest: a stale receiver (dropped from the receipt-stamped
        base packet) and a rejected suffix entry (its row keeps the
        entry's ``t_forward``)."""
        engine, scene, _ = build_engine(link=self.DISTANCE_LINK, capacity=1)
        radios = RadioConfig.of(
            [Radio(ChannelId(1), 100.0, self.DISTANCE_LINK)]
        )
        scene.add_node(n(4), Vec2(50, 30), radios)
        scene.quarantine_node(n(1))
        pushed = []
        push_many = engine.schedule.push_many
        engine.schedule.push_many = lambda entries: (
            pushed.extend(entries), push_many(entries)
        )[1]
        (kept,) = engine.ingest(n(2), packet(2, -1, t_origin=1.0))
        assert kept is pushed[0] and len(pushed) == 2
        rejected = pushed[1]
        base = packet(2, -1, t_origin=1.0).stamped(t_receipt=1.0)
        got = engine.recorder.packets()
        assert got == records(
            [
                (base, n(2), n(1), DropReason.NODE_STALE),
                (forwarded(rejected), n(2), rejected.receivers[0],
                 DropReason.QUEUE_OVERFLOW),
            ]
        )
        assert got[0].t_forward is None
        assert got[1].t_forward == rejected.t_forward != kept.t_forward

    def test_rows_without_receiver(self):
        engine, _, _ = build_engine()
        base = packet(2, -1, t_origin=1.0).stamped(t_receipt=1.0)
        other = packet(1, 2, t_origin=2.0, seq=9).stamped(t_receipt=2.0)
        rows = [
            (base, n(2), None, DropReason.DEADLINE_SHED),
            (base, n(2), n(1), None),
            (other, n(1), None, DropReason.NO_SUCH_CHANNEL),
        ]
        first = engine.recorder.record_many(
            [packet_row(p, s, r, reason) for p, s, r, reason in rows]
        )
        got = engine.recorder.packets()
        assert got == records(rows, first)
        assert [r.receiver for r in got] == [None, 1, None]
        assert [r.record_id for r in got] == [1, 2, 3]


class TestDropReasonMetric:
    def test_mixed_reasons_of_one_ingest_counted_per_reason(self):
        """A broadcast whose receivers are dropped for different reasons
        adds each reason's count to its own ``/metrics`` series."""
        from repro.obs.telemetry import Telemetry

        link = LinkModel(
            loss=PacketLossModel(p0=1.0, p1=1.0, radio_range=100.0)
        )
        radios = RadioConfig.of([Radio(ChannelId(1), 100.0, link)])
        scene = Scene(seed=0)
        for i, x in ((1, 0), (2, 50), (3, 90), (4, 60)):
            scene.add_node(n(i), Vec2(x, 0), radios)
        scene.quarantine_node(n(1))
        telemetry = Telemetry()
        engine = ForwardingEngine(
            scene, ChannelIndexedNeighborTables(scene), VirtualClock(),
            rng=np.random.default_rng(0), telemetry=telemetry,
        )
        for seq in (1, 2):
            assert engine.ingest(n(2), packet(2, -1, t_origin=0.0, seq=seq)) == []
        family = telemetry.registry.get("poem_engine_drop_reason_total")
        by_reason = {
            dict(child.label_values)["reason"]: child.value()
            for child in family.children()
        }
        assert by_reason == {
            DropReason.NODE_STALE: 2, DropReason.LOSS_MODEL: 4,
        }
        recorded = [r.drop_reason for r in engine.recorder.packets()]
        assert recorded.count(DropReason.NODE_STALE) == 2
        assert recorded.count(DropReason.LOSS_MODEL) == 4
        assert engine.dropped == 6


class TestOverloadPlane:
    """Admission control, deadline shedding, accounting."""

    @staticmethod
    def build(**kwargs):
        from repro.core.recording import MemoryRecorder

        link = LinkModel(
            bandwidth=BandwidthModel(peak=1e6), delay=DelayModel(base=0.01)
        )
        scene = Scene(seed=0)
        for i, x in ((1, 0), (2, 50), (3, 90)):
            scene.add_node(
                n(i), Vec2(x, 0),
                RadioConfig.of([Radio(ChannelId(1), 100.0, link)]),
            )
        clock = VirtualClock()
        capacity = kwargs.pop("capacity", None)
        recorder = MemoryRecorder()
        engine = ForwardingEngine(
            scene,
            ChannelIndexedNeighborTables(scene),
            clock,
            recorder,
            rng=np.random.default_rng(0),
            schedule_capacity=capacity,
            **kwargs,
        )
        return engine, engine.overload, recorder, clock

    def test_queue_overflow_suffix_records_carry_forward_stamp(self):
        """The rejected push_many suffix is recorded from each entry's
        own forwarded packet, so its drop rows keep t_forward (they used
        to be stamped from the pre-schedule base packet: t_forward=None
        and, on broadcast, the wrong per-receiver identity)."""
        engine, _, recorder, _ = self.build(capacity=1)
        scheduled = engine.ingest(n(1), packet(1, -1, t_origin=0.0))
        assert len(scheduled) == 1  # second receiver rejected at capacity
        drops = [r for r in recorder.packets() if r.dropped]
        assert [r.drop_reason for r in drops] == [DropReason.QUEUE_OVERFLOW]
        assert drops[0].t_forward is not None
        assert engine.dropped == 1

    def test_admission_control_sheds_at_the_door(self):
        engine, ov, recorder, _ = self.build(capacity=10)
        ov.observe(1.0, 0)  # force SATURATED
        assert ov.admission_limit == 8
        for seq in range(8):  # fill to the admission limit
            p = packet(1, 2, t_origin=0.0, seq=seq + 1)
            engine.ingest(n(1), p)
        assert len(engine.schedule) == 8
        before = engine.transport_dropped
        scheduled = engine.ingest(n(1), packet(1, 2, t_origin=0.0, seq=99))
        assert scheduled == []
        assert engine.transport_dropped == before + 1
        assert ov.shed_total >= 1
        sheds = [
            r for r in recorder.packets()
            if r.drop_reason == DropReason.DEADLINE_SHED
        ]
        assert len(sheds) == 1

    def test_saturated_flush_sheds_hopelessly_late_frames(self):
        engine, ov, recorder, clock = self.build()
        engine.ingest(n(1), packet(1, 2, t_origin=0.0, seq=1))
        ov.observe(1.0, 0)  # SATURATED: shed horizon 0.1s engages
        clock.call_at(1.0, lambda: None)
        clock.run()  # t_forward ~0.011, now 1.0 -> lag ~0.99 > 0.1
        delivered = engine.flush_due(1.0)
        assert delivered == 0
        sheds = [
            r for r in recorder.packets()
            if r.drop_reason == DropReason.DEADLINE_SHED
        ]
        assert len(sheds) == 1
        assert sheds[0].t_forward is not None
        # A shed frame is a drop, not a late delivery: no bucket.
        assert engine.deadlines.missed == 0
        assert engine.deadlines.total == 0
        assert ov.shed_total == 1
        assert engine.transport_dropped == 1

    def test_saturated_flush_records_the_delivery(self):
        engine, ov, recorder, clock = self.build()
        engine.ingest(n(1), packet(1, 2, t_origin=0.0, seq=1))
        ov.observe(1.0, 0)  # SATURATED
        t = engine.next_forward_time()
        clock.call_at(t, lambda: None)
        clock.run()
        # Deliver exactly at t_forward: lag 0, under the shed horizon.
        assert engine.flush_due(t) == 1
        assert ov.state == "saturated"
        (row,) = recorder.packets()
        assert not row.dropped
        assert row.t_delivered == t
        assert engine.deadlines.on_time == 1
        assert engine.deadlines.total == 1
        assert engine.forwarded == 1

    @pytest.mark.parametrize(
        "state, lag", [("pressured", 0.08), ("saturated", 1.0)]
    )
    def test_degraded_harvest_never_delivers_early(self, state, lag):
        """Out of NOMINAL the real-time harvest stays exact: an entry due
        1 ms after the harvest is not delivered with it, and every
        delivery is stamped and recorded at the harvest instant."""
        engine, ov, recorder, _ = self.build()
        forwards = [
            e.t_forward
            for seq in (1, 2, 3)
            for e in engine.ingest(
                n(1), packet(1, 2, t_origin=0.001 * seq, seq=seq)
            )
        ]
        ov.observe(lag, 0)
        for i, t_forward in enumerate(forwards):
            assert ov.state == state
            now = t_forward + 0.0005
            assert engine.flush_wait(now) == 1
            row = recorder.packets()[i]
            assert (row.seqno, row.t_forward) == (i + 1, t_forward)
            assert row.t_delivered == now
        assert engine.deadlines.on_time == 3

    def test_nominal_flush_buckets_deadlines(self):
        engine, ov, _, clock = self.build()
        engine.ingest(n(1), packet(1, 2, t_origin=0.0, seq=1))
        t = engine.next_forward_time()
        clock.call_at(t, lambda: None)
        clock.run()
        assert engine.flush_due(t) == 1
        assert engine.deadlines.on_time == 1
        assert engine.deadlines.missed == 0
        assert ov.state == "nominal"

    def test_idle_flush_feeds_quiet_observation(self):
        engine, ov, _, _ = self.build()
        ov.observe(1.0, 0)
        assert ov.state == "saturated"
        # Idle flushes decay the EWMA back toward NOMINAL.
        for _ in range(200):
            engine.flush_due(0.0)
            if ov.state == "nominal":
                break
        assert ov.state == "nominal"

    def test_flush_wait_returns_zero_when_idle(self):
        engine, ov, _, _ = self.build()
        assert engine.flush_wait(0.0) == 0

    def test_tracing_disabled_outside_nominal(self):
        engine, ov, _, _ = self.build()
        assert ov.allow_tracing
        ov.observe(0.08, 0)  # EWMA 0.02: PRESSURED
        assert not ov.allow_tracing

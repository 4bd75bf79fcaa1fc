"""Tests for repro.core.server — the in-process emulator stack."""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.geometry import Vec2
from repro.core.ids import BROADCAST_NODE, ChannelId, NodeId
from repro.core.overload import OverloadController
from repro.core.server import InProcessEmulator
from repro.errors import ProtocolError, SceneError
from repro.models.link import (
    BandwidthModel,
    DelayModel,
    LinkModel,
    PacketLossModel,
)
from repro.models.mobility import ConstantVelocity
from repro.models.radio import Radio, RadioConfig
from repro.net.virtual import LatencySpec
from repro.protocols.flooding import FloodingProtocol


class TestTopology:
    def test_add_node_allocates_ids(self):
        emu = InProcessEmulator()
        a = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100))
        b = emu.add_node(Vec2(10, 0), RadioConfig.single(1, 100))
        assert a.node_id != b.node_id
        assert a.node_id in emu.scene and b.node_id in emu.scene

    def test_explicit_node_id(self):
        emu = InProcessEmulator()
        host = emu.add_node(
            Vec2(0, 0), RadioConfig.single(1, 100), node_id=NodeId(42)
        )
        assert host.node_id == 42

    def test_remove_node_stops_protocol(self):
        emu = InProcessEmulator()
        proto = FloodingProtocol()
        host = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100),
                            protocol=proto)
        emu.remove_node(host.node_id)
        assert proto.host is None
        assert host.node_id not in emu.scene

    def test_host_lookup(self):
        emu = InProcessEmulator()
        host = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100))
        assert emu.host(host.node_id) is host
        with pytest.raises(SceneError):
            emu.host(NodeId(99))

    def test_hosts_list(self):
        emu = InProcessEmulator()
        emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100))
        emu.add_node(Vec2(10, 0), RadioConfig.single(1, 100))
        assert len(emu.hosts()) == 2


class TestTransmission:
    def test_unicast_delivery(self):
        emu = InProcessEmulator(seed=0)
        a = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100))
        b = emu.add_node(Vec2(50, 0), RadioConfig.single(1, 100))
        a.transmit(b.node_id, b"ping", channel=ChannelId(1))
        emu.run_until(1.0)
        assert len(b.received) == 1
        assert b.received[0].payload == b"ping"

    def test_broadcast_delivery(self):
        emu = InProcessEmulator(seed=0)
        a = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100))
        b = emu.add_node(Vec2(50, 0), RadioConfig.single(1, 100))
        c = emu.add_node(Vec2(0, 50), RadioConfig.single(1, 100))
        a.transmit(BROADCAST_NODE, b"all", channel=ChannelId(1))
        emu.run_until(1.0)
        assert len(b.received) == 1 and len(c.received) == 1
        assert a.received == []  # no self-delivery

    def test_channel_isolation(self):
        emu = InProcessEmulator(seed=0)
        a = emu.add_node(
            Vec2(0, 0), RadioConfig.of([Radio(1, 100.0), Radio(2, 100.0)])
        )
        b = emu.add_node(Vec2(50, 0), RadioConfig.single(1, 100))
        c = emu.add_node(Vec2(0, 50), RadioConfig.single(2, 100))
        a.transmit(BROADCAST_NODE, b"ch1", channel=ChannelId(1))
        a.transmit(BROADCAST_NODE, b"ch2", channel=ChannelId(2))
        emu.run_until(1.0)
        assert [p.payload for p in b.received] == [b"ch1"]
        assert [p.payload for p in c.received] == [b"ch2"]

    def test_transmit_without_radio_rejected(self):
        emu = InProcessEmulator()
        a = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100))
        with pytest.raises(ProtocolError):
            a.transmit(NodeId(2), b"x", channel=ChannelId(9))

    def test_origin_stamp_uses_client_clock(self):
        emu = InProcessEmulator(seed=0)
        a = emu.add_node(
            Vec2(0, 0), RadioConfig.single(1, 100), clock_offset=0.25
        )
        emu.add_node(Vec2(50, 0), RadioConfig.single(1, 100))
        packet = a.transmit(NodeId(2), b"x", channel=ChannelId(1))
        assert packet.t_origin == pytest.approx(0.25)

    def test_uplink_latency_delays_ingest(self):
        emu = InProcessEmulator(seed=0)
        link = LinkModel(bandwidth=BandwidthModel(peak=1e9),
                         delay=DelayModel(base=0.0))
        a = emu.add_node(
            Vec2(0, 0),
            RadioConfig.of([Radio(1, 100.0, link)]),
            uplink=LatencySpec(base=0.5),
        )
        b = emu.add_node(Vec2(50, 0), RadioConfig.of([Radio(1, 100.0, link)]))
        a.transmit(b.node_id, b"x", channel=ChannelId(1))
        emu.run_until(0.4)
        assert b.received == []  # still in the uplink
        emu.run_until(1.0)
        assert len(b.received) == 1

    def test_delivery_time_matches_link_model(self):
        emu = InProcessEmulator(seed=0)
        link = LinkModel(
            bandwidth=BandwidthModel(peak=1e4), delay=DelayModel(base=0.1)
        )
        a = emu.add_node(Vec2(0, 0), RadioConfig.of([Radio(1, 100.0, link)]))
        b = emu.add_node(Vec2(50, 0), RadioConfig.of([Radio(1, 100.0, link)]))
        a.transmit(b.node_id, b"x", channel=ChannelId(1), size_bits=1000)
        emu.run_until(5.0)
        (p,) = b.received
        assert p.t_delivered == pytest.approx(0.1 + 1000 / 1e4)


class TestMobilityIntegration:
    def test_moving_out_of_range_breaks_link(self):
        emu = InProcessEmulator(seed=0)
        a = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100))
        b = emu.add_node(Vec2(50, 0), RadioConfig.single(1, 100))
        emu.scene.set_mobility(b.node_id, ConstantVelocity(100.0, 0.0))
        emu.run_until(2.0)  # b now at x=250, out of range
        a.transmit(b.node_id, b"late", channel=ChannelId(1))
        emu.run_until(3.0)
        assert b.received == []
        assert emu.engine.dropped == 1

    def test_mobility_evaluated_at_transmit_time(self):
        """Positions are advanced lazily but exactly."""
        emu = InProcessEmulator(seed=0)
        a = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100))
        b = emu.add_node(Vec2(90, 0), RadioConfig.single(1, 100))
        emu.scene.set_mobility(b.node_id, ConstantVelocity(10.0, 0.0))
        # At t=2, b is at x=110 > range 100: unicast fails.
        emu.clock.call_at(
            2.0, lambda: a.transmit(b.node_id, b"x", channel=ChannelId(1))
        )
        emu.run_until(3.0)
        assert b.received == []

    def test_enable_mobility_tick_records_positions(self):
        emu = InProcessEmulator(seed=0)
        host = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100))
        emu.scene.set_mobility(host.node_id, ConstantVelocity(10.0, 0.0))
        emu.enable_mobility_tick(0.5)
        emu.run_until(2.0)
        moves = [
            e for e in emu.recorder.scene_events() if e.kind == "node-moved"
        ]
        assert len(moves) >= 3


class TestRunControl:
    def test_run_until_and_for(self):
        emu = InProcessEmulator()
        emu.run_until(1.0)
        assert emu.clock.now() == 1.0
        emu.run_for(0.5)
        assert emu.clock.now() == 1.5

    def test_deterministic_given_seed(self):
        def run():
            emu = InProcessEmulator(seed=123)
            link = LinkModel(
                loss=__import__("repro.models.link", fromlist=["PacketLossModel"]
                                ).PacketLossModel(p0=0.5, p1=0.5,
                                                  radio_range=100.0)
            )
            a = emu.add_node(Vec2(0, 0), RadioConfig.of([Radio(1, 100.0, link)]))
            b = emu.add_node(Vec2(50, 0), RadioConfig.of([Radio(1, 100.0, link)]))
            for _ in range(50):
                a.transmit(b.node_id, b"x", channel=ChannelId(1))
            emu.run_until(2.0)
            return [p.seqno for p in b.received]

        assert run() == run()


# -- virtual-clock wake-ups: one per forward instant --------------------------

TICK = 1.0 / 1024  # dyadic: forward times, timers and actions can coincide
CH = ChannelId(1)
FRAME_BITS = 1024  # one TICK of serialization at 2**20 bit/s


class PerEntryTimerEmulator(InProcessEmulator):
    """The oracle: the clock discipline before ``arm_flush`` — the same
    ``engine.ingest``, then one ``call_at`` per scheduled (packet,
    receiver) pair.

    It also works out which of its timers the coalesced scheme arms as
    well (the first for an instant that is not armed) and which it does
    not.  The latter used to find nothing to deliver, with one
    exception: a frame ingested *at* an instant that was already
    flushed, due at once, is picked up by a leftover timer of an earlier
    fan-out instead of waiting for its own.  ``reordered`` is set when
    such a pick-up ran ahead of any other callback queued for the
    instant: only then can the two disciplines be told apart.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.engine.arm_flush = self._arm_per_entry
        self._instants = set()
        self._picked_up_at = None
        self.reordered = False
        call_at = self.clock.call_at

        def watching_call_at(when, fn):
            if fn in (self._own_timer, self._leftover_timer):
                return call_at(when, fn)

            def other_callback():
                if self._picked_up_at == self.clock.now():
                    self.reordered = True
                fn()

            return call_at(when, other_callback)

        self.clock.call_at = watching_call_at

    def _arm_per_entry(self, entries):
        # One timer per (packet, receiver) pair: a fan-out group of k
        # receivers counts as the k entries it replaces.
        now = self.clock.now()
        for entry in entries:
            when = max(entry.t_forward, now)
            for _ in entry.receivers:
                if when in self._instants:
                    self.clock.call_at(when, self._leftover_timer)
                else:
                    self._instants.add(when)
                    self.clock.call_at(when, self._own_timer)

    def _own_timer(self):
        self._instants.discard(self.clock.now())
        self.engine.flush_due(self.clock.now())

    def _leftover_timer(self):
        if self.engine.flush_due(self.clock.now()):
            self._picked_up_at = self.clock.now()


def run_scenario(emulator_class, scenario):
    """Build and run one generated scenario; returns (observables, emu)."""
    emu = emulator_class(
        seed=scenario["seed"], schedule_capacity=scenario["capacity"]
    )
    # The overload plane counts scan passes (one per timer that fires),
    # so its state follows the number of timers, not the order of the
    # pipeline; it is pinned on its own below.  Here it is a controller
    # no lag can move (infinite budget, unbounded schedule): NOMINAL.
    emu.engine.overload = OverloadController(float("inf"))
    p = scenario["loss"]
    link = LinkModel(
        loss=PacketLossModel(p0=p, p1=p, radio_range=100.0),
        bandwidth=BandwidthModel(
            peak=2.0**20, edge=scenario["edge"], radio_range=100.0
        ),
        delay=DelayModel(base=scenario["delay"] * TICK),
    )
    radios = RadioConfig.of([Radio(CH, 100.0, link)])
    hosts = [
        emu.add_node(
            Vec2(40.0 * i, 0.0),
            radios,
            clock_offset=spec["offset"] * TICK,
            uplink=LatencySpec(base=spec["up"] * TICK),
            downlink=LatencySpec(base=spec["down"] * TICK),
        )
        for i, spec in enumerate(scenario["hosts"])
    ]
    timer_log = []

    def send(host, destination, hops=0):
        if host.node_id in emu.scene:
            host.transmit(
                destination, bytes([hops]), channel=CH, size_bits=FRAME_BITS
            )

    for host, spec in zip(hosts, scenario["hosts"]):
        if spec["relay"]:
            # Retransmits from inside the delivery callback.
            def relay(packet, host=host):
                if packet.payload[0] < 2:
                    send(host, BROADCAST_NODE, packet.payload[0] + 1)

            host.on_app_packet = relay

    for when, kind, i, arg in scenario["actions"]:
        host = hosts[i]
        if kind == "broadcast":
            action = lambda host=host: send(host, BROADCAST_NODE)
        elif kind == "unicast":
            action = lambda host=host, dst=hosts[arg].node_id: send(host, dst)
        elif kind == "timer":
            action = lambda host=host, delay=arg * TICK: (
                host.timers().call_after(
                    delay,
                    lambda: timer_log.append(
                        (emu.clock.now(), int(host.node_id),
                         len(host.received), emu.engine.forwarded)
                    ),
                )
            )
        else:
            action = lambda host=host: emu.remove_node(host.node_id)
        emu.clock.call_at(when * TICK, action)
    emu.run_until(64 * TICK)
    engine = emu.engine
    return {
        "records": emu.recorder.packets(),
        "received": [
            [(int(p.source), int(p.seqno), p.t_delivered) for p in h.received]
            for h in hosts
        ],
        "counters": (
            engine.ingested, engine.forwarded, engine.dropped,
            engine.transport_dropped,
        ),
        "timer_log": timer_log,
    }, emu


@st.composite
def scenarios(draw):
    hosts = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    # A stamp 8 ticks behind the server outruns any link
                    # delay below: t_forward <= now at ingest.
                    "offset": st.sampled_from([0, 0, -8, -3, 4]),
                    "up": st.sampled_from([0, 0, 1, 3]),
                    "down": st.sampled_from([0, 0, 1, 2]),
                    "relay": st.booleans(),
                }
            ),
            min_size=2,
            max_size=5,
        )
    )
    node = st.integers(0, len(hosts) - 1)
    when = st.integers(0, 20)
    actions = draw(
        st.lists(
            st.one_of(
                st.tuples(when, st.just("broadcast"), node, st.just(0)),
                st.tuples(when, st.just("unicast"), node, node),
                st.tuples(when, st.just("timer"), node, st.integers(0, 6)),
                st.tuples(when, st.just("remove"), node, st.just(0)),
            ),
            min_size=1,
            max_size=10,
        )
    )
    return {
        "seed": draw(st.integers(0, 5)),
        "capacity": draw(st.sampled_from([None, None, 2, 5])),
        "loss": draw(st.sampled_from([0.0, 0.3])),
        # None: constant bandwidth, a fan-out shares one forward time.
        "edge": draw(st.sampled_from([None, 2.0**19])),
        "delay": draw(st.integers(0, 2)),
        "hosts": hosts,
        "actions": actions,
    }


class TestFlushWakeups:
    @given(scenarios())
    @settings(max_examples=200, deadline=None)
    def test_coalesced_wakeups_equal_one_timer_per_entry(self, scenario):
        """Record sequence (``record_id`` order included), per-host
        ``received`` order, engine counters and what protocol timers saw
        equal the per-entry oracle — over broadcast/unicast mixes, lagging
        and leading client stamps, up/downlink latency, relays that
        retransmit inside the delivery callback, timers on forward
        instants, schedule overflow and nodes removed in flight."""
        oracle, oracle_emu = run_scenario(PerEntryTimerEmulator, scenario)
        if oracle_emu.reordered:
            # The one reachable difference; its order is pinned by
            # test_frame_due_at_ingest_waits_behind_queued_callbacks.
            event("leftover timer ran ahead of a queued callback")
            return
        coalesced, _ = run_scenario(InProcessEmulator, scenario)
        assert coalesced == oracle

    SCENARIO_WITH_LEFTOVER_PICKUP = {
        "seed": 1, "capacity": None, "loss": 0.0, "edge": None, "delay": 2,
        "hosts": [
            {"offset": 0, "up": 0, "down": 0, "relay": False},
            {"offset": -8, "up": 0, "down": 0, "relay": True},
            {"offset": 0, "up": 0, "down": 0, "relay": False},
        ],
        # Node 1's broadcast is due at tick 1 + 2 + 1 = 4; node 3's timer,
        # set at tick 2, lands on the same instant behind it.
        "actions": [(1, "broadcast", 0, 0), (2, "timer", 2, 2)],
    }

    def test_frame_due_at_ingest_waits_behind_queued_callbacks(self):
        """The relay (node 2, stamps 8 ticks behind) retransmits during
        the flush at tick 4; its frame is due at once.  It is delivered
        by the wake-up armed at its own ingest, i.e. after node 3's timer
        that was already queued for tick 4 — where a unicast to the relay
        always put it.  Per-entry timers delivered it *before* that timer
        whenever the first frame had a second receiver, whose leftover
        timer happened to sit in between."""
        scenario = self.SCENARIO_WITH_LEFTOVER_PICKUP
        got, _ = run_scenario(InProcessEmulator, scenario)
        # (now, node, frames the node had received, engine.forwarded)
        assert got["timer_log"] == [(4 * TICK, 3, 1, 2)]
        assert [len(r) for r in got["received"]] == [1, 1, 2]
        assert got["counters"] == (2, 4, 0, 0)
        oracle, oracle_emu = run_scenario(PerEntryTimerEmulator, scenario)
        assert oracle_emu.reordered
        assert oracle["timer_log"] == [(4 * TICK, 3, 2, 4)]
        assert oracle["records"] == got["records"]

    @staticmethod
    def broadcast_round(edge):
        emu = InProcessEmulator(seed=5)
        link = LinkModel(
            loss=PacketLossModel(p0=0.2, p1=0.2, radio_range=150.0),
            bandwidth=BandwidthModel(peak=1e6, edge=edge, radio_range=150.0),
        )
        radios = RadioConfig.of([Radio(CH, 150.0, link)])
        hosts = [
            emu.add_node(Vec2(60.0 * (i % 8), 60.0 * (i // 8)), radios)
            for i in range(64)
        ]
        scheduled = []
        ingest = emu.engine.ingest

        def recording_ingest(*args, **kwargs):
            entries = ingest(*args, **kwargs)
            scheduled.extend(entries)
            return entries

        emu.engine.ingest = recording_ingest
        for host in hosts:
            host.transmit(BROADCAST_NODE, b"beacon", channel=CH)
        return emu, hosts, scheduled

    def test_one_wakeup_per_distinct_forward_instant(self):
        emu, hosts, scheduled = self.broadcast_round(edge=1e5)
        instants = {e.t_forward for e in scheduled}
        pairs = sum(len(e.receivers) for e in scheduled)
        assert 1 < len(instants) < pairs
        assert emu.clock.pending() == len(instants)
        emu.run_for(1.0)
        assert emu.clock.pending() == 0 and len(emu.engine.schedule) == 0
        assert sum(len(h.received) for h in hosts) == pairs

    def test_constant_bandwidth_round_is_one_wakeup(self):
        emu, _, scheduled = self.broadcast_round(edge=None)
        assert len(scheduled) == 64  # one schedule entry per fan-out
        assert sum(len(e.receivers) for e in scheduled) > 64
        assert emu.clock.pending() == 1

    def test_overload_observes_once_per_forward_instant(self):
        """An observation of the overload controller is one scan pass:
        on the virtual clock one per forward instant (it used to be one
        per scheduled entry, all but the first of an instant idle)."""
        emu, _, scheduled = self.broadcast_round(edge=1e5)
        observed = []
        observe = emu.overload.observe
        emu.overload.observe = lambda lag, depth: (
            observed.append(lag), observe(lag, depth)
        )[1]
        emu.run_for(1.0)
        assert len(observed) == len({e.t_forward for e in scheduled})
        assert set(observed) == {0.0}
        assert emu.overload.snapshot()["transitions"] == 0

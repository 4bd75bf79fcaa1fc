"""Pipeline tracing: sampling, span completeness, persistence.

The acceptance criterion: a sampled packet's trace shows *all* pipeline
stages (receive, neighbor lookup, drop decision, schedule push, scan
wakeup, send, record) on both the virtual and the TCP transport.
"""

import time

import pytest

from repro.core.client import PoEmClient
from repro.core.geometry import Vec2
from repro.core.ids import BROADCAST_NODE, ChannelId, NodeId
from repro.core.recording import MemoryRecorder, SqliteRecorder
from repro.core.tcpserver import PoEmServer
from repro.models.radio import RadioConfig
from repro.obs.tracing import PIPELINE_STAGES, PipelineTracer, format_span
from repro.obs.telemetry import Telemetry

from tests.conftest import make_chain


class TestPipelineTracer:
    def test_first_frame_always_sampled(self):
        tracer = PipelineTracer(sample_every=1000)
        assert tracer.maybe_start() is not None
        assert tracer.maybe_start() is None

    def test_one_in_n_sampling(self):
        tracer = PipelineTracer(sample_every=10)
        hits = sum(
            1 for _ in range(100) if tracer.maybe_start() is not None
        )
        assert hits == 10

    def test_sample_every_validated(self):
        with pytest.raises(ValueError):
            PipelineTracer(sample_every=0)

    def test_drop_outcome_finalizes_immediately(self):
        tracer = PipelineTracer(sample_every=1)
        tr = tracer.maybe_start()
        tr.stage("receive", 1e-6)
        tracer.commit(tr, [], [(None, "channel-loss")])
        (span,) = tracer.recent()
        assert span.outcome == "channel-loss"
        assert not tracer.active

    def test_inflight_eviction_bounded(self):
        tracer = PipelineTracer(sample_every=1, max_inflight=4)

        class _Sched:
            t_forward = 1.0

        for i in range(10):
            tr = tracer.maybe_start()
            tr.source, tr.seqno = i, i
            tracer.commit(tr, [_Sched()], [])
        assert len(tracer._inflight) <= 4
        assert tracer.evicted == 6
        assert any(s.outcome == "trace-evicted" for s in tracer.recent())

    def test_broken_sink_does_not_break_pipeline(self):
        tracer = PipelineTracer(sample_every=1, sink=lambda s: 1 / 0)
        tr = tracer.maybe_start()
        tracer.commit(tr, [], [])  # no-neighbors outcome; sink raises
        assert tracer.recent()[0].outcome == "no-neighbors"

    def test_format_span_renders_stages(self):
        tracer = PipelineTracer(sample_every=1)
        tr = tracer.maybe_start()
        tr.stage("receive", 2e-6)
        tracer.commit(tr, [], [])
        text = format_span(tracer.recent()[0])
        assert "receive" in text and "total" in text


class TestVirtualTransportTrace:
    def test_sampled_packet_covers_all_stages(self):
        """Every pipeline stage appears on a delivered trace (virtual)."""
        from repro.core.server import InProcessEmulator
        from repro.models.radio import RadioConfig as RC

        emu = InProcessEmulator(
            seed=0, telemetry=Telemetry(sample_every=1)
        )
        a = emu.add_node(Vec2(0, 0), RC.single(1, 200.0))
        emu.add_node(Vec2(100, 0), RC.single(1, 200.0))
        a.transmit(BROADCAST_NODE, b"hi", channel=ChannelId(1))
        emu.run_until(1.0)
        spans = emu.telemetry.recent_spans()
        delivered = [s for s in spans if s.outcome == "delivered"]
        assert delivered, f"no delivered spans in {spans}"
        span = delivered[0]
        assert span.stage_names() == PIPELINE_STAGES
        assert span.lag is not None and span.lag >= 0.0
        assert span.t_forward is not None

    def test_degraded_core_sheds_trace_sampling(self):
        """Out of NOMINAL the transport samples no trace: a frame
        received then leaves no span, though one received in NOMINAL
        does."""
        from repro.core.server import InProcessEmulator
        from repro.models.radio import RadioConfig as RC

        emu = InProcessEmulator(
            seed=0, telemetry=Telemetry(sample_every=1)
        )
        a = emu.add_node(Vec2(0, 0), RC.single(1, 200.0))
        b = emu.add_node(Vec2(100, 0), RC.single(1, 200.0))
        a.transmit(b.node_id, b"hi", channel=ChannelId(1))
        emu.run_until(1.0)
        assert len(emu.recorder.spans()) == 1
        emu.overload.observe(1.0, 0)  # SATURATED
        a.transmit(b.node_id, b"hi", channel=ChannelId(1))
        emu.run_until(2.0)
        assert emu.engine.forwarded == 2
        assert len(emu.recorder.spans()) == 1
        assert len(emu.telemetry.recent_spans()) == 1

    def test_spans_persist_through_memory_recorder(self):
        emu, hosts = make_chain(2)
        # make_chain builds a default-telemetry emulator; re-check spans
        # flow into the recorder sink.
        emu.telemetry.tracer.sample_every = 1
        emu.telemetry.tracer._countdown = 1
        hosts[0].transmit(BROADCAST_NODE, b"x", channel=ChannelId(1))
        emu.run_until(1.0)
        assert emu.recorder.spans()
        assert emu.recorder.spans()[0].trace_id >= 1

    def test_spans_persist_through_sqlite_recorder(self, tmp_path):
        from repro.core.server import InProcessEmulator
        from repro.models.radio import RadioConfig as RC

        rec = SqliteRecorder(str(tmp_path / "run.db"))
        emu = InProcessEmulator(
            seed=0, recorder=rec, telemetry=Telemetry(sample_every=1)
        )
        a = emu.add_node(Vec2(0, 0), RC.single(1, 200.0))
        emu.add_node(Vec2(100, 0), RC.single(1, 200.0))
        a.transmit(BROADCAST_NODE, b"x", channel=ChannelId(1))
        emu.run_until(1.0)
        spans = rec.spans()
        assert spans
        round_tripped = spans[0]
        assert round_tripped.stage_names()[0] == "receive"
        assert isinstance(round_tripped.stages[0][1], float)
        rec.close()

    def test_scheduler_lag_histogram_observes_deliveries(self):
        emu, hosts = make_chain(2)
        for _ in range(5):
            hosts[0].transmit(BROADCAST_NODE, b"x", channel=ChannelId(1))
            emu.run_for(0.2)
        hist = emu.telemetry.registry.get("poem_scheduler_lag_seconds")
        assert hist is not None
        assert hist.count() >= 5  # every delivery, not just sampled ones


class TestTCPTransportTrace:
    @pytest.mark.parametrize("unicast", [True, False])
    def test_sampled_packet_covers_all_stages(self, unicast):
        srv = PoEmServer(
            seed=0, telemetry=Telemetry(sample_every=1)
        )
        srv.start()
        try:
            with PoEmClient(
                srv.address, Vec2(0, 0), RadioConfig.single(1, 200.0),
            ) as c1, PoEmClient(
                srv.address, Vec2(100, 0), RadioConfig.single(1, 200.0),
            ) as c2:
                dst = c2.node_id if unicast else BROADCAST_NODE
                c1.transmit(dst, b"hello", channel=ChannelId(1))
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    spans = [
                        s for s in srv.telemetry.recent_spans()
                        if s.outcome == "delivered"
                    ]
                    if spans:
                        break
                    time.sleep(0.02)
                assert spans, "no delivered span on the TCP transport"
                span = spans[0]
                assert span.stage_names() == PIPELINE_STAGES
                assert span.source == int(c1.node_id)
                assert span.receiver == int(c2.node_id)
        finally:
            srv.stop()

    def test_engine_does_not_double_sample_under_server(self):
        srv = PoEmServer(seed=0)
        try:
            assert srv.telemetry.tracer.delegated is True
        finally:
            pass  # never started; nothing to stop

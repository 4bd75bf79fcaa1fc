"""Tests for repro.core.replay — post-emulation reconstruction."""

from dataclasses import astuple

import pytest

from repro.core.geometry import Vec2
from repro.core.ids import ChannelId, NodeId, RadioIndex
from repro.core.recording import MemoryRecorder
from repro.core.replay import ReplayEngine
from repro.core.scene import Scene
from repro.core.server import InProcessEmulator
from repro.errors import ReplayError
from repro.models.mobility import ConstantVelocity
from repro.models.radio import RadioConfig


def n(i):
    return NodeId(i)


def recorded_scene():
    """A scene whose full mutation history went into a recorder."""
    recorder = MemoryRecorder()
    scene = Scene()
    recorder.attach_to_scene(scene)
    scene.add_node(n(1), Vec2(0, 0), RadioConfig.single(1, 100.0), label="A")
    scene.advance_time(1.0)
    scene.add_node(n(2), Vec2(50, 0), RadioConfig.single(1, 100.0), label="B")
    scene.advance_time(2.0)
    scene.move_node(n(1), Vec2(10, 10))
    scene.advance_time(3.0)
    scene.set_radio_channel(n(2), RadioIndex(0), ChannelId(7))
    scene.set_radio_range(n(2), RadioIndex(0), 42.0)
    scene.advance_time(4.0)
    scene.remove_node(n(1))
    return recorder, scene


class TestSceneReconstruction:
    def test_empty_recording_rejected(self):
        with pytest.raises(ReplayError):
            ReplayEngine(MemoryRecorder())

    def test_scene_at_times(self):
        recorder, _ = recorded_scene()
        replay = ReplayEngine(recorder)
        at0 = replay.scene_at(0.5)
        assert set(at0) == {n(1)} and at0[n(1)].label == "A"
        at1 = replay.scene_at(1.5)
        assert set(at1) == {n(1), n(2)}
        at2 = replay.scene_at(2.5)
        assert (at2[n(1)].x, at2[n(1)].y) == (10.0, 10.0)
        at3 = replay.scene_at(3.5)
        assert at3[n(2)].radios[0] == {"channel": 7, "range": 42.0}
        at4 = replay.scene_at(4.5)
        assert set(at4) == {n(2)}

    def test_reconstruction_is_exact_per_event_time(self):
        """Replaying reproduces exactly the states the scene went through."""
        recorder = MemoryRecorder()
        scene = Scene()
        recorder.attach_to_scene(scene)
        scene.add_node(n(1), Vec2(0, 0), RadioConfig.single(1, 100.0))
        scene.set_mobility(n(1), ConstantVelocity(10.0, 0.0))
        checkpoints = {}
        for t in (1.0, 2.0, 3.0):
            scene.advance_time(t)
            checkpoints[t] = scene.position(n(1))
        replay = ReplayEngine(recorder)
        for t, pos in checkpoints.items():
            node = replay.scene_at(t)[n(1)]
            assert (node.x, node.y) == pytest.approx((pos.x, pos.y))

    def test_truncated_recording_detected(self):
        recorder = MemoryRecorder()
        from repro.core.scene import SceneEvent

        # A move for a node that was never added.
        recorder.record_scene(
            SceneEvent(1.0, "node-moved", n(9), {"x": 1, "y": 2})
        )
        replay = ReplayEngine(recorder)
        with pytest.raises(ReplayError):
            replay.scene_at(2.0)

    def test_extent(self):
        recorder, _ = recorded_scene()
        replay = ReplayEngine(recorder)
        assert replay.start_time == 0.0
        assert replay.end_time == 4.0

    def test_frames_fixed_rate(self):
        recorder, _ = recorded_scene()
        replay = ReplayEngine(recorder)
        frames = list(replay.frames(fps=1.0))
        assert len(frames) == 5  # 0..4 inclusive
        assert frames[0].time == 0.0

    def test_bad_fps(self):
        recorder, _ = recorded_scene()
        with pytest.raises(ReplayError):
            ReplayEngine(recorder).frames(fps=0)


class TestTrafficReconstruction:
    def _run_with_traffic(self):
        emu = InProcessEmulator(seed=0)
        a = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100.0))
        b = emu.add_node(Vec2(50, 0), RadioConfig.single(1, 100.0))
        a.transmit(b.node_id, b"hello", channel=1, size_bits=8000)
        emu.run_until(2.0)
        return emu

    def test_in_flight_query(self):
        emu = self._run_with_traffic()
        replay = ReplayEngine(emu.recorder)
        (rec,) = emu.recorder.packets()
        mid = (rec.t_receipt + rec.t_forward) / 2
        assert len(replay.in_flight_at(mid)) == 1
        assert replay.in_flight_at(rec.t_forward + 1.0) == []

    def test_drops_between(self):
        emu = InProcessEmulator(seed=0)
        a = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100.0))
        emu.add_node(Vec2(5000, 0), RadioConfig.single(1, 100.0))
        a.transmit(NodeId(2), b"void", channel=1)
        emu.run_until(1.0)
        replay = ReplayEngine(emu.recorder)
        assert len(replay.drops_between(0.0, 1.0)) == 1
        assert replay.drops_between(0.5, 1.0) == []

    def test_frame_at_combines(self):
        emu = self._run_with_traffic()
        replay = ReplayEngine(emu.recorder)
        frame = replay.frame_at(0.0)
        assert set(frame.nodes) == {n(1), n(2)}

    def test_long_hold_received_earlier_is_in_flight(self):
        # C is received after t and forwarded first; D was received
        # before t with a longer hold and is still in flight at t.
        recorder = MemoryRecorder()
        recorder.record_many([
            astuple(_held(1, t_receipt=1.05, t_forward=1.2))[1:],
            astuple(_held(2, t_receipt=0.2, t_forward=1.3))[1:],
        ])
        (d,) = [p for p in recorder.packets() if p.seqno == 2]
        assert ReplayEngine(recorder).in_flight_at(1.0) == [d]

    def test_in_flight_matches_brute_force_over_mixed_delays(self):
        import random

        rng = random.Random(5)
        records = []
        for i in range(300):
            t_receipt = rng.uniform(0.0, 10.0)
            hold = rng.choice((0.001, 0.05, 0.4, 2.5)) * rng.random()
            dropped = rng.random() < 0.1
            records.append(_held(
                i + 1, t_receipt=t_receipt, t_forward=t_receipt + hold,
                drop_reason="loss-model" if dropped else None,
            ))
        recorder = MemoryRecorder()
        recorder.record_many([astuple(r)[1:] for r in records])
        replay = ReplayEngine(recorder)
        packets = recorder.packets()
        for t in [rng.uniform(-1.0, 13.0) for _ in range(200)] + [
            p.t_forward for p in packets[:20]
        ] + [p.t_receipt for p in packets[:20]]:
            expected = sorted(
                (p for p in packets
                 if not p.dropped and p.t_receipt <= t <= p.t_forward),
                key=lambda p: p.t_forward,
            )
            assert replay.in_flight_at(t) == expected, t


# ---------------------------------------------------------------------------
# Held records + run-summary events
# ---------------------------------------------------------------------------

from repro.core.packet import PacketRecord
from repro.core.scene import SceneEvent


def _held(i, *, t_receipt, t_forward, drop_reason=None):
    """A record the server held from ``t_receipt`` to ``t_forward``."""
    return PacketRecord(
        record_id=i, seqno=i, source=1, destination=2, sender=1,
        receiver=2, channel=1, kind="data", size_bits=100,
        t_origin=t_receipt, t_receipt=t_receipt, t_forward=t_forward,
        t_delivered=None if drop_reason else t_forward,
        drop_reason=drop_reason,
    )


class TestRunSummaryEvent:
    def test_run_summary_is_ignored_by_the_fold(self):
        recorder, _scene = recorded_scene()
        recorder.record_scene(SceneEvent(
            9.0, "run-summary", NodeId(-1),
            {"ingested": 0, "forwarded": 0, "dropped": 0},
        ))
        replay = ReplayEngine(recorder)
        nodes = replay.scene_at(9.5)  # folds past the summary marker
        assert n(2) in nodes  # and does not raise ReplayError
        assert replay.end_time >= 9.0

    def test_emulator_summary_replays(self):
        emu = InProcessEmulator(seed=0)
        emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100.0))
        emu.run_until(1.0)
        emu.record_run_summary()
        replay = ReplayEngine(emu.recorder)
        frame = replay.frame_at(1.0)
        assert set(frame.nodes) == {n(1)}

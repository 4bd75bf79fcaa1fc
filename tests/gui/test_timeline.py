"""Tests for the replay timeline: ReplayEngine.frames + render_frame."""

import pytest

from repro.core.geometry import Vec2
from repro.core.replay import ReplayEngine
from repro.core.server import InProcessEmulator
from repro.errors import ReplayError
from repro.gui.ascii_view import render_frame
from repro.models.radio import RadioConfig


def recorded_run():
    emu = InProcessEmulator(seed=0)
    a = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100.0), label="A")
    b = emu.add_node(Vec2(50, 0), RadioConfig.single(1, 100.0), label="B")
    for i in range(3):
        emu.clock.call_at(
            float(i), lambda: a.transmit(b.node_id, b"tick", channel=1)
        )
    emu.run_until(4.0)
    return emu


def lossy_run():
    """Deliveries to B interleaved with drops to out-of-range C."""
    emu = InProcessEmulator(seed=0)
    a = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100.0), label="A")
    b = emu.add_node(Vec2(50, 0), RadioConfig.single(1, 100.0), label="B")
    c = emu.add_node(Vec2(900, 0), RadioConfig.single(1, 100.0), label="C")
    for i in range(12):
        dst = c if i % 3 == 0 else b
        emu.clock.call_at(
            0.25 * i,
            lambda dst=dst: a.transmit(dst.node_id, b"x", channel=1),
        )
    emu.run_until(4.0)
    return emu


class TestReplayTimeline:
    def test_frames_cover_run(self):
        emu = recorded_run()
        replay = ReplayEngine(emu.recorder)
        frames = list(replay.frames(fps=1.0))
        assert len(frames) >= 3
        assert frames[0].time == replay.start_time

    def test_frame_str_renders(self):
        emu = recorded_run()
        frame = next(ReplayEngine(emu.recorder).frames(fps=1.0))
        text = render_frame(frame)
        assert "t=" in text and "A" in text and "B" in text

    def test_counters_monotone(self):
        emu = recorded_run()
        replay = ReplayEngine(emu.recorder)
        delivered = [f.delivered_so_far for f in replay.frames(fps=2.0)]
        assert delivered == sorted(delivered)
        assert delivered[-1] == 3

    def test_time_window(self):
        emu = recorded_run()
        replay = ReplayEngine(emu.recorder)
        frames = list(replay.frames(fps=1.0, t_start=1.0, t_end=2.0))
        assert frames[0].time == 1.0 and frames[-1].time == 2.0

    def test_summary_totals(self):
        emu = recorded_run()
        summary = ReplayEngine(emu.recorder).summary()
        assert "packet records  : 3" in summary
        assert "delivered       : 3" in summary
        assert "scene events    : 2" in summary

    def test_bad_fps(self):
        emu = recorded_run()
        with pytest.raises(ReplayError):
            ReplayEngine(emu.recorder).frames(fps=0.0)

    def test_counters_match_brute_force_count(self):
        emu = lossy_run()
        packets = emu.recorder.packets()
        assert any(p.dropped for p in packets)
        assert any(not p.dropped for p in packets)
        frames = list(ReplayEngine(emu.recorder).frames(fps=7.0))
        assert len(frames) > 20
        for f in frames:
            delivered = sum(
                1 for p in packets
                if not p.dropped
                and p.t_delivered is not None
                and p.t_delivered <= f.time
            )
            dropped = sum(
                1 for p in packets
                if p.dropped and p.t_receipt is not None
                and p.t_receipt <= f.time
            )
            assert (f.delivered_so_far, f.dropped_so_far) == (
                delivered, dropped
            )

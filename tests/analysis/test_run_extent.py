"""One run extent: ``stats``, ``analyze`` and ``replay`` frame a
recording by the same ``RunDataset.time_range()``."""

import pytest

from repro.analysis import analyze
from repro.core.geometry import Vec2
from repro.core.ids import BROADCAST_NODE
from repro.core.recording import MemoryRecorder
from repro.core.replay import ReplayEngine
from repro.core.server import InProcessEmulator
from repro.models.radio import RadioConfig
from repro.stats.report import build_report


def _run(recorder, *, nodes, sends, until):
    """Broadcast ``sends`` frames round-robin from 10 ms on, run to
    ``until`` and record the run summary."""
    emu = InProcessEmulator(seed=3, recorder=recorder)
    radios = RadioConfig.single(1, 500.0)
    hosts = [emu.add_node(Vec2(10.0 * i, 0.0), radios) for i in range(nodes)]
    for k in range(sends):
        emu.clock.call_at(
            0.01 + 0.001 * k,
            lambda h=hosts[k % nodes]: h.transmit(
                BROADCAST_NODE, b"e" * 8, channel=1
            ),
        )
    emu.run_until(until)
    emu.record_run_summary()
    emu.shutdown()
    return recorder


def summary_run():
    """Traffic in the first 0.4 s of a 2.0 s run with a run summary."""
    return _run(MemoryRecorder(), nodes=2, sends=40, until=2.0)


@pytest.mark.parametrize("make", [summary_run])
def test_stats_analyze_and_replay_share_one_extent(make):
    recorder = make()
    report = analyze(recorder)
    replay = ReplayEngine(recorder)
    extent = replay.end_time - replay.start_time
    assert build_report(recorder).duration == pytest.approx(extent)
    assert report.duration == pytest.approx(extent)
    assert (report.start, report.end) == (replay.start_time, replay.end_time)


def test_summary_run_extent_covers_the_run_not_its_traffic():
    replay = ReplayEngine(summary_run())
    assert (replay.start_time, replay.end_time) == (0.0, 2.0)

#!/usr/bin/env python3
"""Post-emulation replay: record a run to SQLite, then scrub through it.

Runs a short mobile scenario with a durable
:class:`~repro.core.recording.SqliteRecorder`, then — as a *separate*
consumer, the way an analyst would — opens the database, reconstructs
the run with :class:`~repro.core.replay.ReplayEngine`, prints a timeline
of ASCII frames, and writes an SVG snapshot per second.

Run:  python examples/replay_demo.py
"""

import tempfile
from pathlib import Path

from repro import (
    ConstantVelocity,
    HybridProtocol,
    InProcessEmulator,
    RadioConfig,
    ReplayEngine,
    SqliteRecorder,
    Vec2,
)
from repro.gui import frame_to_svg, render_frame
from repro.protocols.common import ProtocolTuning


def record(db_path: str) -> None:
    """Phase 1: run and record."""
    recorder = SqliteRecorder(db_path)
    emu = InProcessEmulator(seed=3, recorder=recorder)
    tuning = ProtocolTuning(hello_interval=0.5, neighbor_timeout=1.6)
    a = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 200.0),
                     protocol=HybridProtocol(tuning), label="A")
    b = emu.add_node(Vec2(150, 0), RadioConfig.single(1, 200.0),
                     protocol=HybridProtocol(tuning), label="B")
    c = emu.add_node(Vec2(300, 0), RadioConfig.single(1, 200.0),
                     protocol=HybridProtocol(tuning), label="C")
    # B wanders off upward; the A->C route dies when B leaves range.
    emu.scene.set_mobility(b.node_id, ConstantVelocity(25.0, 90.0))
    emu.enable_mobility_tick(0.25)  # smooth positions for the replay

    emu.run_until(3.0)
    for i in range(5):
        a.protocol.send_data(c.node_id, f"msg-{i}".encode())
        emu.run_for(1.0)
    emu.run_until(10.0)
    recorder.close()


def replay(db_path: str, svg_dir: Path) -> None:
    """Phase 2: reconstruct from the database alone."""
    engine = ReplayEngine(db_path)
    print(engine.summary())
    print()
    for frame in engine.frames(fps=0.5):
        print(render_frame(frame, width=64, height=12))

    svg_dir.mkdir(parents=True, exist_ok=True)
    n = 0
    for frame in engine.frames(fps=1.0):
        (svg_dir / f"frame_{n:03d}.svg").write_text(frame_to_svg(frame))
        n += 1
    print(f"wrote {n} SVG frames to {svg_dir}/")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        db_path = str(Path(tmp) / "poem_run.sqlite")
        record(db_path)
        replay(db_path, Path(tmp) / "frames")


if __name__ == "__main__":
    main()

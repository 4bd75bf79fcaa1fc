"""Golden outputs of the offline commands on one seeded recording.

``poem stats``, ``analyze --format json``, ``replay --summary-only`` and
``export`` (CSV and JSON lines) must print exactly what
``tests/golden/`` holds.  The recording is an in-process run on the
virtual clock, so its bytes depend only on the seed.

To regenerate after a deliberate output change, run this file as a
script (``PYTHONPATH=src python tests/test_golden_offline.py``) and
review the diff of ``tests/golden/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.geometry import Vec2
from repro.core.ids import BROADCAST_NODE
from repro.core.recording import SqliteRecorder
from repro.core.server import InProcessEmulator
from repro.models.link import LinkModel, PacketLossModel
from repro.models.radio import RadioConfig
from repro.obs.telemetry import Telemetry

GOLDEN = Path(__file__).parent / "golden"


def record_run(db: Path) -> None:
    """Four nodes on a lossy channel: unicast flows, broadcasts, one
    move, and a run summary recorded after traffic ends.  Telemetry is
    off: traced stage costs are host CPU time, not a function of the
    seed."""
    recorder = SqliteRecorder(str(db))
    emu = InProcessEmulator(
        seed=7, recorder=recorder, telemetry=Telemetry(enabled=False)
    )
    try:
        link = LinkModel(
            loss=PacketLossModel(p0=0.1, p1=0.9, d0=50.0, radio_range=200.0)
        )
        radios = RadioConfig.single(1, 200.0, link)
        hosts = [
            emu.add_node(Vec2(60.0 * i, 0.0), radios, label=f"n{i}")
            for i in range(4)
        ]
        for k in range(40):
            src = hosts[k % 4]
            dst = BROADCAST_NODE if k % 5 == 0 else hosts[(k + 1) % 4].node_id
            emu.clock.call_at(
                0.05 + 0.01 * k,
                lambda s=src, d=dst: s.transmit(d, b"g" * 24, channel=1),
            )
        emu.clock.call_at(
            0.2, lambda: emu.scene.move_node(hosts[3].node_id, Vec2(150, 20))
        )
        emu.run_until(2.0)
        emu.record_run_summary()
    finally:
        emu.shutdown()
        recorder.close()


def offline_outputs(workdir: Path) -> dict[str, str]:
    """Every golden output, keyed by its file name under ``golden/``."""
    import contextlib
    import io

    db = workdir / "run.sqlite"
    record_run(db)
    outputs: dict[str, str] = {}
    for name, argv in (
        ("stats.txt", ["stats", str(db)]),
        ("analyze.json", ["analyze", str(db), "--format", "json"]),
        ("replay.txt", ["replay", str(db), "--summary-only"]),
    ):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        outputs[name] = buf.getvalue()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["export", str(db), "--out", str(workdir / "p.csv")]) == 0
        assert main([
            "export", str(db), "--format", "jsonl",
            "--out", str(workdir / "all.jsonl"),
        ]) == 0
    outputs["packets.csv"] = (workdir / "p.csv").read_text()
    outputs["scene.csv"] = (workdir / "p_scene.csv").read_text()
    outputs["export.jsonl"] = (workdir / "all.jsonl").read_text()
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return offline_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize(
    "name",
    ["stats.txt", "analyze.json", "replay.txt", "packets.csv", "scene.csv",
     "export.jsonl"],
)
def test_offline_output_matches_golden(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in offline_outputs(Path(tmp)).items():
            (GOLDEN / name).write_text(text)
            print(f"wrote {GOLDEN / name}", file=sys.stderr)

"""Smoke test of the benchmark itself.

Not collected by the tier-1 suite (``testpaths = tests``); run it with
``python -m pytest benchmarks/e2e/test_smoke.py``.  It drives ``run.py
--quick`` (1 s phases) over all five workloads and checks the contract
between the command's output and ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

with open(ROOT / "BENCHMARK.json") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(workload: str, trace: int, out: Path) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick",
         "--workload", workload, "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    return proc, line


def _assert_matches(section: str, proc, line) -> None:
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {k: v["unit"] for k, v in line["metrics"].items()}
    assert emitted == declared  # every name, both ways, with its unit
    for name, unit in declared.items():
        printed = rf"{re.escape(name)}\s+-?[0-9.]+ {re.escape(unit)}\n"
        assert re.search(printed, proc.stdout), f"{name} not printed"


def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload, tmp_path):
    proc, line = _run(workload, 0, tmp_path)
    _assert_matches("end_to_end", proc, line)
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload, tmp_path):
    from spans import load_span_file

    proc, line = _run(workload, 1, tmp_path)
    _assert_matches("per_layer", proc, line)
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["failed_share"] == 0
    assert metrics["core.overload.shed"] == 0
    assert metrics["bench.trace_overhead_x"] > 0
    span_files = list(tmp_path.glob(f"spans-{workload}-*.json"))
    assert span_files
    for path in span_files:
        doc = load_span_file(str(path))  # every span has a parent or is a root
        assert doc["spans"]
    if workload == "inproc_static_mesh":
        with open(next(tmp_path.glob("result-*-trace1.json"))) as fh:
            doc = json.load(fh)
        traced = doc["phases"][1]
        total = sum(doc["self_times"][1].values())
        assert abs(total - traced["wall_s"]) <= 0.10 * traced["wall_s"]
        assert metrics["obs.telemetry.overhead_x"] > 0
        assert metrics["core.neighbor.fanout_hit_ratio"] > 0.99


def test_corrupted_payload_and_dropped_delivery_are_counted():
    import checks
    import inputs

    @dataclasses.dataclass
    class Delivered:
        payload: bytes

    tail = b"filler--"
    expected = lambda seq: inputs.payload(seq, tail)  # noqa: E731
    flow = [Delivered(expected(i)) for i in range(10)]
    assert checks.check_flow(flow, expected, first_seq=0, count=10)[0].count == 0
    corrupted = list(flow)
    corrupted[3] = Delivered(expected(3)[:-1] + b"!")
    assert checks.check_flow(corrupted, expected, first_seq=0, count=10)[0].count == 1
    dropped = flow[:5] + flow[6:]
    assert checks.check_flow(dropped, expected, first_seq=0, count=10)[0].count == 1
    swapped = flow[:2] + [flow[3], flow[2]] + flow[4:]
    assert checks.check_flow(swapped, expected, first_seq=0, count=10)[0].count == 1
    assert checks.check_flow(flow + [flow[0]], expected, first_seq=0, count=10)[0].count == 1


def test_verifier_catches_tampering_in_a_real_run():
    import inproc

    mesh = inproc._build(11, False, None)
    cold = dict(mesh.counts())
    attempted, failed, _ = inproc._verify("unpinned", 11, mesh, cold)
    assert attempted > 0 and failed == 0
    host = mesh.hosts[0]
    host.received[0] = dataclasses.replace(
        host.received[0], payload=host.received[0].payload[:-1] + b"!"
    )
    mesh.hosts[1].received.pop()
    _, failed, messages = inproc._verify("unpinned", 11, mesh, cold)
    assert failed >= 2, messages
    result = inproc.PhaseResult(
        wall_s=1.0, deliveries=1, attempted=attempted, failed=failed,
        cpu_s=0.0, rss_mb=0.0, setup_s=0.0,
    )
    assert result.failed / result.attempted > 0  # what failed_share reports

"""The micro-benchmark gate (``benchmarks/check_regression.py``) over
repeated runs: a host stall in one run passes, a slow-down in every run
fails."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_regression", ROOT / "benchmarks" / "check_regression.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

CAL = "test_framing_roundtrip"


def run_json(path, rows):
    """A pytest-benchmark JSON: ``rows`` maps name → (min_s, extra_info)."""
    path.write_text(json.dumps({"benchmarks": [
        {"name": name, "stats": {"min": t, "mean": t * 1.1},
         "extra_info": extra}
        for name, (t, extra) in rows.items()
    ]}))
    return str(path)


def rows(ingest=1.0, lag=50.0, count=2.0):
    return {
        CAL: (100e-6, {}),
        "test_engine_ingest": (ingest * 10e-6, {"count_copies": count}),
        "test_scheduler_lag": (1e-3, {"p99_lag_us": lag, "cpu_count": 2}),
    }


@pytest.fixture
def baseline(tmp_path, monkeypatch):
    monkeypatch.setattr(gate, "BASELINE_PATH", tmp_path / "BENCH_micro.json")
    base = run_json(tmp_path / "base.json", rows())
    assert gate.main([base, "--update", "base"]) == 0
    return tmp_path


def check(tmp_path, *runs):
    paths = [run_json(tmp_path / f"run{i}.json", r)
             for i, r in enumerate(runs)]
    return gate.main(paths + ["--tolerance", "0.30", "--normalize", CAL])


def test_merge_takes_min_time_max_count_median_figure():
    merged = gate.merge_runs([
        {"a": {"min_us": 3.0, "count_x": 1.0, "p99_lag_us": 10.0}},
        {"a": {"min_us": 2.0, "count_x": 2.0, "p99_lag_us": 30.0}},
        {"a": {"min_us": 4.0, "count_x": 1.0, "p99_lag_us": 900.0}},
    ])
    assert merged == {"a": {"min_us": 2.0, "count_x": 2.0, "p99_lag_us": 30.0}}
    # Two runs: the lower median is the lower value.
    two = gate.merge_runs([{"a": {"p99_lag_us": 695.0}},
                           {"a": {"p99_lag_us": 50.0}}])
    assert two == {"a": {"p99_lag_us": 50.0}}


def test_update_records_cpu_count_and_runs(baseline):
    history = json.loads((baseline / "BENCH_micro.json").read_text())
    entry = history["history"][-1]
    assert entry["cpu_count"] >= 1 and entry["runs"] == 1


def test_identical_runs_pass(baseline):
    assert check(baseline, rows(), rows()) == 0


def test_a_stall_in_one_run_passes(baseline):
    assert check(baseline, rows(ingest=2.0), rows()) == 0
    assert check(baseline, rows(lag=700.0), rows()) == 0


def test_a_slow_down_in_both_runs_fails(baseline):
    assert check(baseline, rows(ingest=1.5), rows(ingest=1.5)) == 1
    assert check(baseline, rows(lag=400.0), rows(lag=400.0)) == 1


def test_a_count_above_the_baseline_in_either_run_fails(baseline):
    assert check(baseline, rows(count=3.0), rows()) == 1

#!/usr/bin/env python
"""Micro-benchmark regression gate (see docs/performance.md).

Compares fresh ``pytest-benchmark --benchmark-json`` runs against the
newest baseline entry in ``BENCH_micro.json`` at the repo root and exits
non-zero when any benchmark's **min** time regressed beyond the
tolerance.  Min is used rather than mean: on shared CI runners the mean
is dominated by scheduling noise while the min approximates the true
cost of the code path.

Given several fresh runs of one suite (CI passes two), the gate reads
one figure per benchmark across them (:func:`merge_runs`): each timing
is the min over the runs, each ``count_*`` the max, and every other
exported figure (``p99_*``, ratios) the lower median — an observed
value, for two runs the lower of the two.  A host stall in one run
then costs nothing, while a slow-down present in both runs still
fails.

Cross-machine comparisons are inherently apples-to-oranges, so the
checker can *normalize* both sides by a calibration benchmark
(``--normalize test_framing_roundtrip``): each time is divided by the
calibrator's time from the same run, and the resulting unitless shapes
are compared.  CI uses this mode.

Benchmarks may also export absolute envelope figures via
``benchmark.extra_info`` keys starting with ``p99_`` (microseconds) —
e.g. the scheduler's tail wakeup lag.  Those are real-time deadlines,
not machine speeds, so they are gated **absolutely**: never normalized,
and allowed ``tolerance`` slack plus a small additive floor
(``P99_FLOOR_US``) so a near-zero baseline cannot demand the impossible
from a noisy runner.

Two more ``extra_info`` conventions:

* ``speedup_*`` — parallel-scaling ratios (e.g. the sharded cluster's
  4-worker wall-clock speedup).  Gated as **core-aware lower bounds**:
  the fresh run must reach ``SPEEDUP_FLOOR_X`` whenever its exported
  ``cpu_count`` is ≥ ``SPEEDUP_MIN_CORES``; on smaller boxes the gate
  prints a skip note instead of demanding physically impossible
  parallelism.  Never normalized (a ratio is already unitless).
* ``overhead_*`` — instrumentation-cost ratios (instrumented run over
  its bare variant; e.g. the sharded cluster with worker-telemetry
  export + trace propagation vs stripped).  Gated as **core-aware upper
  bounds**: at most ``OVERHEAD_BUDGET_X`` on a box with ≥
  ``SPEEDUP_MIN_CORES`` cores; an oversubscribed smaller box measures
  scheduler noise, not code, so the gate prints a skip note there.
  Never normalized.
* ``count_*`` — counts of work the program does per unit of output
  (e.g. virtual-clock timers armed per delivered frame), taken over a
  fixed seeded pass so they **repeat exactly** on any machine.  Gated
  absolutely and without tolerance: the fresh count may not exceed the
  baseline's.  Never normalized.
* ``no_time_gate`` — set truthy by whole-scenario benchmarks whose
  wall-clock is load-shape-dependent noise: the min-time comparison is
  skipped for them and only their exported figures are gated.

Usage::

    # gate (exit 1 on regression)
    python benchmarks/check_regression.py fresh.json [fresh2.json ...]
        [--tolerance 0.30] [--normalize NAME]

    # refresh the committed baseline after a deliberate perf change
    python benchmarks/check_regression.py fresh.json [fresh2.json ...]
        --update "label"

The baseline file keeps a *history* of labelled entries; the gate
always compares against the newest one, and ``--update`` appends the
merged runs with the host's ``cpu_count``.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_micro.json"
DEFAULT_TOLERANCE = 0.30

#: Additive slack (µs) for absolute ``p99_*`` gates: OS scheduling noise
#: near zero would otherwise make a tight baseline unmeetable.
P99_FLOOR_US = 150.0

#: Minimum parallel speedup a ``speedup_*`` figure must reach on a box
#: with at least SPEEDUP_MIN_CORES cores (the sharded-cluster acceptance
#: floor; mirrored by the in-test assert in test_scalability.py).
SPEEDUP_FLOOR_X = 2.0
SPEEDUP_MIN_CORES = 4

#: Maximum instrumentation-cost ratio an ``overhead_*`` figure may reach
#: on a box with at least SPEEDUP_MIN_CORES cores (the cluster-telemetry
#: budget; mirrored by the in-test assert in test_scalability.py).
OVERHEAD_BUDGET_X = 1.05


def _is_absolute(key: str) -> bool:
    """Keys gated as absolute real-time figures, exempt from normalize."""
    return key.startswith("p99_")


def _is_speedup(key: str) -> bool:
    """Keys gated as core-aware lower bounds (bigger is better)."""
    return key.startswith("speedup_")


def _is_overhead(key: str) -> bool:
    """Keys gated as core-aware upper bounds (smaller is better)."""
    return key.startswith("overhead_")


def _is_count(key: str) -> bool:
    """Keys gated as exactly repeating counts (smaller is better)."""
    return key.startswith("count_")


def load_fresh(path: Path) -> dict[str, dict[str, float]]:
    """Extract {name: {mean_us, min_us}} from a pytest-benchmark JSON."""
    raw = json.loads(path.read_text())
    out: dict[str, dict[str, float]] = {}
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        entry = {
            "mean_us": stats["mean"] * 1e6,
            "min_us": stats["min"] * 1e6,
        }
        for key, value in (bench.get("extra_info") or {}).items():
            if (
                _is_absolute(key)
                or _is_speedup(key)
                or _is_overhead(key)
                or _is_count(key)
                or key == "cpu_count"
            ):
                entry[key] = float(value)
            elif key == "no_time_gate":
                entry[key] = 1.0 if value else 0.0
        out[bench["name"]] = entry
    if not out:
        raise SystemExit(f"no benchmarks found in {path}")
    return out


def merge_runs(
    runs: list[dict[str, dict[str, float]]]
) -> dict[str, dict[str, float]]:
    """One figure per benchmark over repeated runs of one suite: the min
    of each timing, the max of each ``count_*``, the lower median of the
    rest."""
    merged: dict[str, dict[str, float]] = {}
    for name in sorted(set().union(*runs)):
        present = [run[name] for run in runs if name in run]
        entry: dict[str, float] = {}
        for key in sorted(set().union(*present)):
            values = [stats[key] for stats in present if key in stats]
            if key in ("mean_us", "min_us"):
                entry[key] = min(values)
            elif _is_count(key):
                entry[key] = max(values)
            else:
                entry[key] = statistics.median_low(values)
        merged[name] = entry
    return merged


def load_runs(paths: list[str]) -> dict[str, dict[str, float]]:
    return merge_runs([load_fresh(Path(p)) for p in paths])


def load_baseline() -> dict:
    if not BASELINE_PATH.exists():
        raise SystemExit(
            f"baseline {BASELINE_PATH} missing; create it with --update"
        )
    return json.loads(BASELINE_PATH.read_text())


def newest_entry(baseline: dict) -> dict:
    history = baseline.get("history", [])
    if not history:
        raise SystemExit("baseline has no history entries")
    return history[-1]


def normalize(
    benchmarks: dict[str, dict[str, float]], calibrator: str
) -> dict[str, dict[str, float]]:
    cal = benchmarks.get(calibrator)
    if cal is None or cal["min_us"] <= 0:
        raise SystemExit(
            f"calibration benchmark {calibrator!r} missing from results"
        )
    scale = cal["min_us"]
    return {
        name: {
            # Only the raw timings are machine-scaled; p99 deadlines,
            # speedup ratios and flags are already machine-independent.
            k: (v / scale if k in ("mean_us", "min_us") else v)
            for k, v in stats.items()
        }
        for name, stats in benchmarks.items()
    }


def check(args: argparse.Namespace) -> int:
    fresh = load_runs(args.results)
    baseline = load_baseline()
    entry = newest_entry(baseline)
    tolerance = (
        args.tolerance
        if args.tolerance is not None
        else float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    )
    base_benchmarks = entry["benchmarks"]
    fresh_cmp, base_cmp = fresh, base_benchmarks
    if args.normalize:
        fresh_cmp = normalize(fresh, args.normalize)
        base_cmp = normalize(base_benchmarks, args.normalize)

    failures: list[str] = []
    print(
        f"regression gate vs baseline {entry['label']!r} "
        f"({entry['date']}), tolerance {tolerance:.0%}"
        + (f", normalized by {args.normalize}" if args.normalize else "")
        + (f", over {len(args.results)} runs" if len(args.results) > 1
           else "")
    )
    for name, base in sorted(base_cmp.items()):
        got = fresh_cmp.get(name)
        if got is None:
            failures.append(f"{name}: missing from fresh results")
            continue
        if base.get("no_time_gate"):
            print(
                f"  {name:36s} min {got['min_us']:10.4f}"
                "  (whole-scenario bench, time not gated)"
            )
        else:
            limit = base["min_us"] * (1.0 + tolerance)
            ratio = got["min_us"] / base["min_us"] if base["min_us"] else 1.0
            verdict = "ok" if got["min_us"] <= limit else "REGRESSED"
            print(
                f"  {name:36s} min {got['min_us']:10.4f} vs {base['min_us']:10.4f}"
                f"  ({ratio:5.2f}x)  {verdict}"
            )
            if got["min_us"] > limit:
                failures.append(
                    f"{name}: min {got['min_us']:.4f} exceeds "
                    f"{limit:.4f} ({ratio:.2f}x baseline)"
                )
        for key in sorted(k for k in base if _is_speedup(k)):
            have = got.get(key)
            if have is None:
                failures.append(f"{name}: {key} missing from fresh results")
                continue
            cores = int(got.get("cpu_count", 0))
            if cores < SPEEDUP_MIN_CORES:
                print(
                    f"  {name:36s} {key} {have:6.2f}x"
                    f"  ({cores} core(s) — speedup gate skipped)"
                )
                continue
            sp_verdict = "ok" if have >= SPEEDUP_FLOOR_X else "REGRESSED"
            print(
                f"  {name:36s} {key} {have:6.2f}x"
                f"  (floor {SPEEDUP_FLOOR_X:.1f}x on {cores} cores)"
                f"  {sp_verdict}"
            )
            if have < SPEEDUP_FLOOR_X:
                failures.append(
                    f"{name}: {key} {have:.2f}x below the "
                    f"{SPEEDUP_FLOOR_X:.1f}x floor ({cores} cores)"
                )
        for key in sorted(k for k in base if _is_overhead(k)):
            have = got.get(key)
            if have is None:
                failures.append(f"{name}: {key} missing from fresh results")
                continue
            cores = int(got.get("cpu_count", 0))
            if cores < SPEEDUP_MIN_CORES:
                print(
                    f"  {name:36s} {key} {have:6.3f}x"
                    f"  ({cores} core(s) — overhead gate skipped)"
                )
                continue
            ov_verdict = "ok" if have <= OVERHEAD_BUDGET_X else "REGRESSED"
            print(
                f"  {name:36s} {key} {have:6.3f}x"
                f"  (budget {OVERHEAD_BUDGET_X:.2f}x on {cores} cores)"
                f"  {ov_verdict}"
            )
            if have > OVERHEAD_BUDGET_X:
                failures.append(
                    f"{name}: {key} {have:.3f}x over the "
                    f"{OVERHEAD_BUDGET_X:.2f}x budget ({cores} cores)"
                )
        for key in sorted(k for k in base if _is_count(k)):
            have = got.get(key)
            if have is None:
                failures.append(f"{name}: {key} missing from fresh results")
                continue
            count_verdict = "ok" if have <= base[key] else "REGRESSED"
            print(
                f"  {name:36s} {key} {have:g} vs {base[key]:g}"
                f"  (exact count)  {count_verdict}"
            )
            if have > base[key]:
                failures.append(
                    f"{name}: {key} {have:g} exceeds the baseline's "
                    f"{base[key]:g}"
                )
        for key in sorted(k for k in base if _is_absolute(k)):
            have = got.get(key)
            if have is None:
                failures.append(f"{name}: {key} missing from fresh results")
                continue
            p99_limit = base[key] * (1.0 + tolerance) + P99_FLOOR_US
            p99_verdict = "ok" if have <= p99_limit else "REGRESSED"
            print(
                f"  {name:36s} {key} {have:8.2f} vs {base[key]:8.2f} us"
                f"  (limit {p99_limit:8.2f})  {p99_verdict}"
            )
            if have > p99_limit:
                failures.append(
                    f"{name}: {key} {have:.2f} us exceeds {p99_limit:.2f} us"
                )
    for name in sorted(set(fresh_cmp) - set(base_cmp)):
        print(f"  {name:36s} (new benchmark, no baseline yet)")
    if failures:
        print("\nFAIL:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nall benchmarks within tolerance")
    return 0


def update(args: argparse.Namespace) -> int:
    fresh = load_runs(args.results)
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
    else:
        baseline = {"schema": 1, "tolerance": DEFAULT_TOLERANCE, "history": []}
    baseline["history"].append(
        {
            "label": args.update,
            "date": _dt.date.today().isoformat(),
            "cpu_count": os.cpu_count(),
            "runs": len(args.results),
            "benchmarks": {
                name: {k: round(v, 4) for k, v in stats.items()}
                for name, stats in sorted(fresh.items())
            },
        }
    )
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"appended baseline entry {args.update!r} to {BASELINE_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "results", nargs="+",
        help="pytest-benchmark --benchmark-json output, one per run",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed min-time regression fraction (default: baseline file's)",
    )
    parser.add_argument(
        "--normalize",
        metavar="NAME",
        default=None,
        help="divide all times by this benchmark's min (cross-machine mode)",
    )
    parser.add_argument(
        "--update",
        metavar="LABEL",
        default=None,
        help="append these results to the baseline instead of gating",
    )
    args = parser.parse_args(argv)
    return update(args) if args.update else check(args)


if __name__ == "__main__":
    sys.exit(main())

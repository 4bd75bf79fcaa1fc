"""Compare two sets of result files, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py DIR_A DIR_B

``DIR_A`` is the parent (or the first set of runs), ``DIR_B`` the change
(or the second set).  Both hold ``result-*.json`` files written by
``run.py --out``.  Runs are paired in file-name order within a workload,
so measure the two sides alternately and with the same seeds.

Verdicts for end-to-end metrics, using the bounds in ``BENCHMARK.json``:

``improved``
    B wins at least nine tenths of the pairs (ties count for neither)
    and the medians differ by more than the distance between A's
    quartiles.
``regressed``
    B's median is worse than A's by more than the bound, and either A's
    own spread is within the bound or every run of B is worse than every
    run of A.
``unresolved``
    the difference or A's spread exceeds the bound but the runs overlap:
    more or steadier runs are needed, not a verdict.
``unchanged``
    neither of the above: B is no worse than A by more than the bound.

Per-layer metrics have no bound; their medians are listed for reading
beside the end-to-end rows.  The latency rows of a workload are marked
``void`` when either side's load generator ran late
(``loadgen.late_p99_us`` above 1000): the generator, not the program,
set those numbers.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

from summary import quartiles

Samples = dict[tuple[str, str], list[float]]

LATENCY_ROWS = {
    "delay_err_p50_us", "delay_err_p99_us", "sched_lag_p50_us",
    "sched_lag_p99_us", "ontime_share",
}
LATE_LIMIT_US = 1000.0


def load_set(directory: str, trace: int) -> tuple[Samples, dict[str, list[str]]]:
    """(values by (workload, metric), record digests by workload)."""
    samples: Samples = {}
    digests: dict[str, list[str]] = {}
    for path in sorted(Path(directory).glob(f"result-*-trace{trace}.json")):
        with open(path) as fh:
            doc = json.load(fh)
        if not doc["correct"]:
            raise SystemExit(f"{path}: run was incorrect or invalid")
        for metric, entry in doc["metrics"].items():
            samples.setdefault((doc["workload"], metric), []).append(
                entry["value"]
            )
        for info in doc.get("info", []):
            if "records_digest" in info:
                digests.setdefault(doc["workload"], []).append(
                    f"{doc['seed']}:{info['records_digest']}"
                )
    return samples, digests


def verdict(
    a: list[float], b: list[float], better: str, bound: float
) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - a) > 0: worse
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    all_b_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_b_worse = all(sign * (y - x) > 0 for x in a for y in b)
    iqr = a_q3 - a_q1
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and abs(b_med - a_med) > iqr
        and sign * (b_med - a_med) < 0
    ):
        return "improved"
    scale = abs(a_med) or 1.0
    worse_by = sign * (b_med - a_med) / scale
    noisy = iqr / scale > bound
    if worse_by > bound:
        return "regressed" if (not noisy or all_b_worse) else "unresolved"
    if noisy and not all_b_better:
        return "unresolved"
    return "unchanged"


def compare(
    dir_a: str, dir_b: str, spec: dict, trace: int = 0
) -> list[dict[str, Any]]:
    a, _ = load_set(dir_a, trace)
    b, _ = load_set(dir_b, trace)
    section = spec["per_layer" if trace else "end_to_end"]
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in section:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            bound: Optional[float] = metric.get("bound")
            late = (workload, "loadgen.late_p99_us")
            void = metric["name"] in LATENCY_ROWS and any(
                quartiles(side[late])[1] > LATE_LIMIT_US
                for side in (a, b) if late in side
            )
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "a": quartiles(a[key]),
                "b": quartiles(b[key]),
                "n": (len(a[key]), len(b[key])),
                "verdict": (
                    verdict(a[key], b[key], metric["better"], bound)
                    if bound is not None
                    else "void (generator late)" if void else "-"
                ),
            })
    return rows


def print_rows(rows: list[dict[str, Any]]) -> None:
    print(f"{'workload':<20} {'metric':<36} {'unit':<6} "
          f"{'A q1/median/q3':>36} {'B q1/median/q3':>36}  n     verdict")
    for row in rows:
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        print(
            f"{row['workload']:<20} {row['metric']:<36} {row['unit']:<6} "
            f"{fmt(row['a']):>36} {fmt(row['b']):>36}  "
            f"{row['n'][0]}/{row['n'][1]:<3} {row['verdict']}"
        )


def self_check(
    workloads: list[str], seed: int, seconds: float, repeat: int,
    out_dir: str, quick: bool,
) -> int:
    """``run.py --repeat K``: two sets of K end-to-end runs each, taken
    alternately with seeds ``seed .. seed+K-1``, must agree within the
    benchmark's own bounds and give identical record digests.

    Every run is its own process, as under the driver: ``peak_rss_mb`` is
    a high-water mark of the process, so runs sharing one would read the
    largest workload's memory on every later one.
    """
    here = Path(__file__).resolve().parent
    with open(here.parents[1] / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    set_a, set_b = Path(out_dir) / "set-a", Path(out_dir) / "set-b"
    for directory in (set_a, set_b):
        directory.mkdir(parents=True, exist_ok=True)
        for stale in directory.glob("result-*.json"):
            stale.unlink()
    ok = True
    for name in workloads:
        for i in range(repeat):
            for directory in (set_a, set_b):
                command = [
                    sys.executable, str(here / "run.py"), "--workload", name,
                    "--seed", str(seed + i), "--seconds", str(seconds),
                    "--out", str(directory),
                ] + (["--quick"] if quick else [])
                ok = subprocess.run(command).returncode == 0 and ok
    if not ok:
        print("DISAGREE: a run was incorrect or invalid")
        return 1
    rows = compare(str(set_a), str(set_b), spec)
    print_rows(rows)
    disagree = [r for r in rows if r["verdict"] != "unchanged"]
    for row in disagree:
        print(f"DISAGREE: {row['workload']} {row['metric']}: {row['verdict']}")
    _, digests_a = load_set(str(set_a), 0)
    _, digests_b = load_set(str(set_b), 0)
    if digests_a != digests_b:
        print("DISAGREE: record digests differ between the two sets")
        return 1
    return 1 if disagree else 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    root = Path(__file__).resolve().parents[2]
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    rows = compare(argv[0], argv[1], spec, 0) + compare(argv[0], argv[1], spec, 1)
    if not rows:
        sys.stderr.write("no result files in common\n")
        return 2
    print_rows(rows)
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

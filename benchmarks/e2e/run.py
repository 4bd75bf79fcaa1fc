"""The end-to-end + per-layer benchmark of all three PoEm deployments.

One command::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--repeat K] [--out DIR] [--quick]

(``PYTHONPATH=src python -m benchmarks.e2e ...`` is the same program.)

Without ``--trace`` a run measures the end-to-end metrics with every
wrapper off.  With ``--trace`` it measures the per-layer metrics in three
half-length phases: an untraced one (the fidelity numbers and the base of
``bench.trace_overhead_x``), a traced one (timing wrappers installed, the
program's own telemetry at ``sample_every=1``), and on the two workloads
where it is defined a third with the deployment's telemetry default
flipped (``obs.telemetry.overhead_x``).

Every metric is printed by name with its unit, outputs are checked, and
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only for a correct and valid run.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 11
QUICK_SECONDS = 1.0


def _fail(message: str, code: int = 2) -> "NoReturn":  # noqa: F821
    sys.stderr.write(f"benchmarks/e2e: {message}\n")
    raise SystemExit(code)


if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    # The benchmark measures the program in this checkout and nothing
    # else; without it there is nothing to run.
    _fail(f"no program source at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from harness import PhaseResult  # noqa: E402

WORKLOAD_MODULES = {
    "tcp_paced": "tcp",
    "tcp_flood": "tcp",
    "inproc_static_mesh": "inproc",
    "inproc_mobile_mesh": "inproc",
    "sharded_mesh": "sharded",
}
#: Workloads on which ``obs.telemetry.overhead_x`` is defined, with the
#: telemetry setting that is *not* the deployment's default.
TELEMETRY_FLIP = {"inproc_static_mesh": "off", "sharded_mesh": "on"}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment() -> dict[str, Any]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "start_method": multiprocessing.get_start_method(),
        "loadavg": list(os.getloadavg()),
    }


#: A run whose validity guard trips (a machine stall made the generator
#: late, the server shed load, a process died) measured something else
#: than it claims: it is discarded with its reason printed and measured
#: again, at most this many times in all.  Wrong outputs on a valid run
#: are never retried.
MAX_ATTEMPTS = 3


def _measure(name: str, seed: int, seconds: float, **kwargs) -> PhaseResult:
    run = __import__(WORKLOAD_MODULES[name]).run
    for attempt in range(1, MAX_ATTEMPTS + 1):
        result = run(name, seed, seconds, **kwargs)
        result.info["attempt"] = attempt
        if not result.invalid or attempt == MAX_ATTEMPTS:
            return result
        print(f"   attempt {attempt} discarded as invalid: "
              + "; ".join(result.invalid))
    raise AssertionError("unreachable")


def measure_end_to_end(
    name: str, seed: int, seconds: float, quick: bool
) -> tuple[dict[str, float], list[PhaseResult]]:
    result = _measure(
        name, seed, seconds,
        setup_repeats=1 if quick else harness.SETUP_REPEATS,
    )
    metrics = {
        "setup_s": result.setup_s,
        "delivered_pps": result.delivered_pps,
        "peak_rss_mb": result.rss_mb,
    }
    return metrics, [result]


def measure_per_layer(
    name: str, seed: int, seconds: float, out_dir: Optional[str],
    declared: list[str],
) -> tuple[dict[str, float], list[PhaseResult]]:
    half = seconds / 2.0
    base = _measure(name, seed, half, setup_repeats=1)
    traced = _measure(name, seed, half, traced=True, setup_repeats=1,
                      out_dir=out_dir)
    phases = [base, traced]
    # A layer this workload does not run reads 0; numbers that describe
    # the run's fidelity come from the untraced phase.
    metrics = {metric: 0.0 for metric in declared}
    metrics.update(traced.layer)
    metrics.update(base.layer)
    metrics["cpu_us_per_delivery"] = base.cpu_us_per_delivery
    if name == "tcp_paced":
        # Paced throughput is the offered rate; the wrappers show in
        # the delay error instead.
        untraced = base.layer["delay_err_p50_us"]
        metrics["bench.trace_overhead_x"] = (
            traced.layer["delay_err_p50_us"] / untraced if untraced else 0.0
        )
    else:
        metrics["bench.trace_overhead_x"] = (
            base.delivered_pps / traced.delivered_pps
            if traced.delivered_pps else 0.0
        )
    flip = TELEMETRY_FLIP.get(name)
    if flip is not None:
        other = _measure(name, seed, half, telemetry=flip, setup_repeats=1)
        phases.append(other)
        on, off = (base, other) if flip == "off" else (other, base)
        metrics["obs.telemetry.overhead_x"] = (
            off.delivered_pps / on.delivered_pps if on.delivered_pps else 0.0
        )
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    metrics["failed_share"] = failed / attempted if attempted else 0.0
    return metrics, phases


def report(
    name: str, seed: int, seconds: float, trace: int,
    metrics: dict[str, float], units: dict[str, str],
    phases: list[PhaseResult], env: dict,
) -> None:
    print(f"== {name}  seed={seed} seconds={seconds:g} trace={trace}")
    print("   " + "  ".join(f"{k}={v}" for k, v in env.items()))
    width = max(len(k) for k in metrics)
    for key, value in metrics.items():
        print(f"   {key:<{width}}  {value:>16.4f} {units[key]}")
    labels = ["untraced", "traced", "telemetry-flipped"] if trace else ["timed"]
    for label, phase in zip(labels, phases):
        print(
            f"   [{label}] wall={phase.wall_s:.3f}s "
            f"deliveries={phase.deliveries} attempted={phase.attempted} "
            f"failed={phase.failed} windows={len(phase.rate_windows)} "
            f"pps={phase.delivered_pps:.1f} "
            f"(whole phase {phase.whole_phase_pps:.1f}) "
            f"cpu_us_per_delivery={phase.cpu_us_per_delivery:.2f}"
        )
        for key, value in phase.info.items():
            print(f"      {key}: {value}")
        if phase.self_times:
            total = sum(phase.self_times.values())
            print(f"      self time by layer (sum {total:.3f}s):")
            ranked = sorted(phase.self_times.items(), key=lambda kv: -kv[1])
            for layer, self_s in ranked:
                print(f"        {layer:<34} {self_s:9.4f}s "
                      f"{100 * self_s / total if total else 0:5.1f}%")
        for message in phase.problems:
            print(f"      INCORRECT: {message}")
        for message in phase.invalid:
            print(f"      INVALID: {message}")


def run_one(
    name: str, seed: int, seconds: float, trace: int,
    out_dir: Optional[str], quick: bool, spec: dict,
) -> bool:
    """Measure one workload once; print the report and the JSON line.
    Returns True for a correct and valid run."""
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    env = environment()
    if trace:
        metrics, phases = measure_per_layer(
            name, seed, seconds, out_dir, list(units)
        )
    else:
        metrics, phases = measure_end_to_end(name, seed, seconds, quick)
    if set(metrics) != set(units):
        _fail(
            f"{name}: emitted metrics differ from BENCHMARK.json "
            f"{section}: {sorted(set(metrics) ^ set(units))}", 3,
        )
    metrics = {key: float(metrics[key]) for key in units}
    report(name, seed, seconds, trace, metrics, units, phases, env)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    invalid = [m for p in phases for m in p.invalid]
    correct = failed == 0 and attempted > 0
    line = {
        "correct": correct and not invalid,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }
    if out_dir:
        doc = dict(line)
        doc.update({
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "environment": env, "invalid": invalid,
            "problems": [m for p in phases for m in p.problems],
            "info": [p.info for p in phases],
            "self_times": [p.self_times for p in phases],
            "phases": [
                {
                    "wall_s": p.wall_s, "deliveries": p.deliveries,
                    "whole_phase_pps": p.whole_phase_pps,
                    "rate_windows": p.rate_windows,
                    "cost_windows": p.cost_windows,
                }
                for p in phases
            ],
        })
        path = Path(out_dir) / f"result-{name}-seed{seed}-trace{trace}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
    print(json.dumps(line))
    return line["correct"]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all five in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=0, metavar="K",
                        help="measure two sets of K runs and check that "
                             "they agree within the bounds")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write result files (and spans) here")
    parser.add_argument("--quick", action="store_true",
                        help="1 s phases, one set-up: smoke test only")
    args = parser.parse_args(argv)
    if set(names) != set(WORKLOAD_MODULES):
        _fail("BENCHMARK.json workloads differ from the benchmark's", 3)
    seconds = QUICK_SECONDS if args.quick else args.seconds
    if seconds <= 0:
        _fail("--seconds must be positive")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    selected = [args.workload] if args.workload else names

    if args.repeat:
        from compare import self_check

        return self_check(
            selected, args.seed, seconds, args.repeat,
            args.out or str(ROOT / ".bench_out"), args.quick,
        )
    if args.workload:
        return 0 if run_one(args.workload, args.seed, seconds, args.trace,
                            args.out, args.quick, spec) else 1
    # All workloads: one process each, as under the driver.  peak_rss_mb
    # is a high-water mark of the process, so workloads sharing one would
    # read the largest one's memory from then on.
    passed = True
    for name in names:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
        if args.out:
            command += ["--out", args.out]
        if args.quick:
            command.append("--quick")
        passed = subprocess.run(command).returncode == 0 and passed
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

"""Bench: scalability in emulated nodes + the future-work cluster (§3, §7).

Two sweeps: emulator throughput vs node count (the 'scalable in the
number of emulated nodes' claim) and wall-clock speedup vs multi-process
cluster size (:class:`~repro.cluster.sharded.ShardedEmulator`).

These are whole-scenario drivers, so their wall-clock is load-dependent
and noisy; each exports ``no_time_gate`` so the regression gate skips
min-time comparison and gates only the exported figures (the sharded
bench's ``speedup_x4``, core-aware).
"""

import multiprocessing

from repro.experiments import scale

from .conftest import run_once

#: Speedup the 4-worker sharded cluster must reach on a ≥4-core box —
#: the PR's acceptance floor, mirrored by check_regression.py.
SPEEDUP_FLOOR_X4 = 2.0

#: Wall-clock ratio (telemetry-on / bare) the 4-worker cluster must stay
#: under on a ≥4-core box: cluster-wide observability — per-worker
#: registries, snapshot merging at barriers, sampled cross-process
#: tracing — may cost at most 5%.  Mirrored by check_regression.py.
OVERHEAD_BUDGET_X = 1.05


def test_node_count_scaling(benchmark):
    rows = run_once(
        benchmark, scale.run_node_scaling, (10, 25, 50, 100), duration=5.0,
    )
    print("\n" + scale.format_node_rows(rows))
    benchmark.extra_info["no_time_gate"] = True
    benchmark.extra_info["rows"] = [
        {
            "n_nodes": r.n_nodes,
            "frames": r.frames_ingested,
            "wall_seconds": r.wall_seconds,
            "frames_per_second": r.frames_per_wall_second,
        }
        for r in rows
    ]
    # All offered beacons were processed at every scale.
    for row in rows:
        assert row.frames_ingested > 0
        assert row.frames_forwarded > 0


def test_sharded_wall_clock_speedup(benchmark):
    """Real OS parallelism: identical broadcast-ingest script against the
    multi-process :class:`~repro.cluster.sharded.ShardedEmulator` at 1
    and 4 workers; the 4-worker run must be ≥2× faster wherever there
    are cores to run it on (the gate self-disarms below 4 cores — a
    1-core box physically cannot demonstrate parallel speedup)."""
    rows = run_once(
        benchmark,
        scale.run_sharded_scaling,
        (1, 4),
        n_nodes=24,
        frames_per_node=48,
    )
    print("\n" + scale.format_sharded_rows(rows))
    cores = multiprocessing.cpu_count()
    speedup = rows[-1].speedup
    benchmark.extra_info["no_time_gate"] = True
    benchmark.extra_info["cpu_count"] = cores
    benchmark.extra_info["speedup_x4"] = speedup
    benchmark.extra_info["rows"] = [
        {
            "n_workers": r.n_workers,
            "frames_offered": r.frames_offered,
            "frames_forwarded": r.frames_forwarded,
            "wall_seconds": r.wall_seconds,
            "speedup": r.speedup,
        }
        for r in rows
    ]
    # Every cluster size forwarded the identical load (determinism).
    assert len({r.frames_forwarded for r in rows}) == 1
    assert all(r.frames_forwarded > 0 for r in rows)
    if cores >= 4:
        assert speedup >= SPEEDUP_FLOOR_X4, (
            f"4-worker sharded cluster only {speedup:.2f}x faster than "
            f"1 worker on {cores} cores (need {SPEEDUP_FLOOR_X4}x)"
        )


def _profiler_overhead(rounds=3, **load):
    """Best-of-N interleaved bare/profiled single-emulator runs.

    Same interleaving rationale as :func:`_sharded_telemetry_overhead`:
    noise lands on both variants equally, best-of-N approximates each
    variant's true cost.  The profiled variant samples at the
    profiler's default rate — the configuration the docs promise is
    near-free.  Returns ``(bare_best, profiled_best)`` wall seconds.
    """
    from repro.obs.profiler import DEFAULT_HZ

    bare, profiled = [], []
    for _ in range(rounds):
        bare.append(
            scale.run_node_scaling((64,), **load)[0].wall_seconds
        )
        profiled.append(
            scale.run_node_scaling(
                (64,), profile_hz=DEFAULT_HZ, **load
            )[0].wall_seconds
        )
    return min(bare), min(profiled)


def test_profiler_overhead(benchmark):
    """Continuous profiling must be near-free: the broadcast-ingest run
    with the sampling profiler on at its default ~97 Hz may cost at
    most 5% wall clock over the bare variant (gated core-aware — an
    oversubscribed box measures scheduler noise, not the sampler)."""
    bare_best, prof_best = run_once(
        benchmark,
        _profiler_overhead,
        rounds=3,
        duration=5.0,
        interval=0.1,
    )
    cores = multiprocessing.cpu_count()
    overhead = prof_best / max(bare_best, 1e-12)
    print(
        f"\nbare {bare_best:.3f}s  profiled {prof_best:.3f}s  "
        f"ratio {overhead:.3f}x (budget {OVERHEAD_BUDGET_X:.2f}x)"
    )
    benchmark.extra_info["no_time_gate"] = True
    benchmark.extra_info["cpu_count"] = cores
    benchmark.extra_info["overhead_profiler"] = overhead
    assert bare_best > 0 and prof_best > 0
    if cores >= 4:
        assert overhead <= OVERHEAD_BUDGET_X, (
            f"profiler costs {(overhead - 1) * 100:.1f}% wall clock "
            f"on {cores} cores "
            f"(budget {(OVERHEAD_BUDGET_X - 1) * 100:.0f}%)"
        )


def _sharded_telemetry_overhead(rounds=3, **load):
    """Best-of-N interleaved bare/telemetry 4-worker runs.

    Interleaving (bare, telemetry, bare, telemetry, ...) rather than
    back-to-back blocks means thermal drift and background noise land on
    both variants equally; best-of-N then approximates each variant's
    true cost the same way the min-time gate does.  Returns
    ``(bare_best, telemetry_best)`` wall seconds.
    """
    bare, telem = [], []
    for _ in range(rounds):
        bare.append(
            scale.run_sharded_scaling((4,), **load)[0].wall_seconds
        )
        telem.append(
            scale.run_sharded_scaling(
                (4,), telemetry=True, **load
            )[0].wall_seconds
        )
    return min(bare), min(telem)


def test_sharded_telemetry_overhead(benchmark):
    """Cluster-wide observability must be near-free: the 4-worker
    sharded run with worker telemetry export + trace propagation on may
    cost at most 5% wall clock over the bare variant (gated core-aware —
    an oversubscribed 1-core box measures scheduler noise, not code)."""
    bare_best, telem_best = run_once(
        benchmark,
        _sharded_telemetry_overhead,
        rounds=3,
        n_nodes=16,
        frames_per_node=32,
    )
    cores = multiprocessing.cpu_count()
    overhead = telem_best / max(bare_best, 1e-12)
    print(
        f"\nbare {bare_best:.3f}s  telemetry {telem_best:.3f}s  "
        f"ratio {overhead:.3f}x (budget {OVERHEAD_BUDGET_X:.2f}x)"
    )
    benchmark.extra_info["no_time_gate"] = True
    benchmark.extra_info["cpu_count"] = cores
    benchmark.extra_info["overhead_cluster_telemetry"] = overhead
    assert bare_best > 0 and telem_best > 0
    if cores >= 4:
        assert overhead <= OVERHEAD_BUDGET_X, (
            f"cluster telemetry costs {(overhead - 1) * 100:.1f}% "
            f"wall clock on {cores} cores "
            f"(budget {(OVERHEAD_BUDGET_X - 1) * 100:.0f}%)"
        )

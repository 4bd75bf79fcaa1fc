#!/usr/bin/env python
"""Produce the CI build artifacts: a telemetry metrics snapshot and the
HTML forensics report of a representative emulation run.

Usage::

    python benchmarks/make_artifacts.py [--out-dir artifacts]

Runs a short deterministic virtual-stack emulation (multi-radio scene,
hybrid routing, full tracing), then writes:

* ``metrics.json`` — ``export_metrics_json`` snapshot of the run's
  telemetry registry (counters, gauges, histogram buckets + p50/95/99),
* ``analysis.html`` — the self-contained HTML report from
  ``repro.analysis.analyze`` (clock audit, anomaly catalog, windowed
  aggregates, one sample lineage),
* ``analysis.json`` — the same report machine-readable,
* ``poem-flight-parent.json`` + ``flight.txt`` — a sample crash
  flight-recorder artifact: a tiny sharded run whose worker is killed
  mid-flight, dumped by the parent's recorder and rendered the way
  ``poem analyze --flight`` would show it (docs/observability.md),
* ``profile.folded`` + ``profile.txt`` — the merged collapsed-stack
  profile of a 4-worker sharded run with continuous profiling on
  (parent + every worker; feed the ``.folded`` file to flamegraph.pl
  or https://speedscope.app),
* ``timeline.json`` — the same run's Chrome trace-event timeline,
  ready for https://ui.perfetto.dev.

CI uploads the directory with ``actions/upload-artifact`` so every
build carries an inspectable record of what the benchmarked emulator
actually did — including what a real worker crash looks like and
where its microseconds went.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def build_run():
    """A small deterministic run with traffic, drops, and clock skew."""
    from repro.core.geometry import Vec2
    from repro.core.server import InProcessEmulator
    from repro.models.radio import Radio, RadioConfig
    from repro.obs.telemetry import Telemetry

    radios = RadioConfig((Radio(channel=1, range=150.0),))
    dual = RadioConfig(
        (Radio(channel=1, range=150.0), Radio(channel=2, range=150.0))
    )
    emu = InProcessEmulator(seed=7, telemetry=Telemetry(sample_every=4))
    a = emu.add_node(Vec2(0, 0), radios, label="a")
    b = emu.add_node(Vec2(100, 0), dual, label="b")
    c = emu.add_node(Vec2(200, 0), radios, label="c", clock_offset=0.02)
    far = emu.add_node(Vec2(5000, 0), radios, label="far")

    for i in range(50):
        t = 0.01 + i * 0.02
        emu.clock.call_at(
            t, lambda: a.transmit(b.node_id, b"x" * 64, channel=1)
        )
        emu.clock.call_at(
            t + 0.005, lambda: c.transmit(b.node_id, b"y" * 64, channel=1)
        )
        if i % 5 == 0:
            emu.clock.call_at(
                t + 0.002,
                lambda: a.transmit(far.node_id, b"z" * 64, channel=1),
            )
    emu.run_until(1.2)
    emu.record_run_summary()
    return emu


def build_flight_artifact(out: Path):
    """Kill a shard worker mid-run; return the parent's flight dump path.

    The ring-load-then-SIGKILL script mirrors the cluster acceptance
    test, so the uploaded artifact is exactly what an operator would
    find after a real worker death.
    """
    from repro.cluster import ShardedEmulator
    from repro.core.geometry import Vec2
    from repro.errors import ClusterError
    from repro.models.radio import RadioConfig
    from repro.obs.flightrec import format_flight, load_flight

    radios = RadioConfig.single(1, 200.0)
    emu = ShardedEmulator(n_workers=2, seed=0, flight_dir=str(out))
    hosts = [
        emu.add_node(Vec2(50.0 * i, 0.0), radios, label=f"n{i}")
        for i in range(4)
    ]
    emu.start()
    try:
        for i in range(8):
            hosts[i % 4].transmit(
                hosts[(i + 1) % 4].node_id,
                b"x" * 32,
                channel=1,
                t=0.01 * (i + 1),
            )
        emu._procs[0].kill()
        try:
            emu.flush(1.0)
        except ClusterError:
            pass
    finally:
        emu.stop()

    path = out / "poem-flight-parent.json"
    if not path.exists():
        return None
    (out / "flight.txt").write_text(
        format_flight(load_flight(path)) + "\n"
    )
    return path


def build_profile_artifacts(out: Path):
    """A profiled 4-worker run → merged flamegraph input + timeline.

    Continuous profiling is on in every process (parent + 4 workers);
    the flush barriers ship each worker's folded stacks home, so the
    collapsed file covers the whole cluster.  Returns the ``.folded``
    path, or None when the run was too quick to catch a single sample
    (possible on a heavily oversubscribed CI box — not an error).
    """
    from repro.cluster import ShardedEmulator
    from repro.core.geometry import Vec2
    from repro.models.radio import RadioConfig
    from repro.obs.profiler import format_profile
    from repro.obs.telemetry import Telemetry
    from repro.obs.timeline import timeline_from_dataset, write_timeline

    radios = RadioConfig.single(1, 200.0)
    # sample_every=1: with a round-robin transmit script any stride >1
    # hits the same nodes every round, leaving some shards span-less.
    emu = ShardedEmulator(
        n_workers=4,
        seed=11,
        telemetry=Telemetry(sample_every=1),
        profile_hz=250.0,
    )
    hosts = [
        emu.add_node(Vec2(60.0 * i, 0.0), radios, label=f"p{i}")
        for i in range(8)
    ]
    emu.start()
    try:
        for rnd in range(30):
            for i, host in enumerate(hosts):
                host.transmit(
                    hosts[(i + 1) % len(hosts)].node_id,
                    b"x" * 32,
                    channel=1,
                    t=0.01 * (rnd + 1) + 0.001 * i,
                )
            emu.flush(0.01 * (rnd + 1) + 0.5)
        emu.collect()
        emu.record_run_summary()
        collapsed = emu.profile_collapsed()
        stacks = emu.profiler.folded() if emu.profiler else {}
        timeline = timeline_from_dataset(
            emu.recorder, profiler=emu.profiler
        )
    finally:
        emu.stop()

    write_timeline(out / "timeline.json", timeline)
    if not collapsed.strip():
        return None
    path = out / "profile.folded"
    path.write_text(collapsed)
    (out / "profile.txt").write_text(format_profile(stacks) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="artifacts",
                        help="directory to write artifacts into")
    args = parser.parse_args(argv)

    from repro.analysis import analyze
    from repro.analysis.report import render_html, render_json
    from repro.stats.export import export_metrics_json

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    emu = build_run()

    n_families = export_metrics_json(emu.telemetry, out / "metrics.json")
    report = analyze(emu.recorder)
    (out / "analysis.html").write_text(
        render_html(report, title="PoEm CI bench run forensics")
    )
    (out / "analysis.json").write_text(render_json(report))
    flight_path = build_flight_artifact(out)
    profile_path = build_profile_artifacts(out)

    print(
        f"wrote {n_families} metric families to {out / 'metrics.json'};"
        f" analysis: {report.total} packets,"
        f" {report.delivered} delivered,"
        f" {len(report.anomalies)} anomalies"
        f" -> {out / 'analysis.html'}"
    )
    if flight_path is None:
        print("worker-kill run produced no flight artifact",
              file=sys.stderr)
        return 1
    print(f"sample crash flight artifact -> {flight_path}")
    if profile_path is None:
        print("profiled run caught no samples (oversubscribed box?);"
              " timeline.json still written", file=sys.stderr)
    else:
        print(f"cluster profile -> {profile_path} "
              f"(+ timeline.json for Perfetto)")
    if report.total == 0 or not report.summary_consistent:
        print("artifact run looks wrong (no traffic or inconsistent"
              " summary)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

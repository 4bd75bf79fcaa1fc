"""Command-line interface: ``python -m repro <command>``.

The commands cover the operator workflows the paper's GUI served:

``run-scenario``
    Headless emulation run: build nodes from a JSON spec, drive the scene
    with a scenario script, record everything to SQLite.
``replay``
    Post-emulation replay of a recording — ASCII timeline to stdout
    and/or SVG frames to a directory.
``experiment``
    Regenerate one of the paper's tables/figures and print its rows.
``stats``
    Whole-run statistics report from a recording.
``export``
    Dump a recording as CSV or JSON-lines for external analysis.
``analyze``
    Post-emulation forensics report: per-packet lineage, clock-drift
    audit, anomaly detection — text, JSON, or a single-file HTML page.
    ``--flight PATH`` renders a crash flight-recorder artifact (the
    JSON a dying cluster dumps) instead of, or alongside, a recording.
``console``
    Interactive operator console on a fresh emulator.
``serve``
    Start the real-time TCP emulation server and wait for clients
    (``--profile-hz`` turns on the continuous sampling profiler).
``profile``
    Render a run's CPU profile: per-thread self-time summary,
    flamegraph.pl/speedscope collapsed stacks, or the raw JSON
    snapshot — from a recording's ``profile`` scene event or live from
    a deployment's ``GET /profile`` endpoint (``--live URL``).

Node-spec JSON (``run-scenario --nodes``)::

    [
      {"x": 0,   "y": 0, "label": "VMN1", "protocol": "hybrid",
       "radios": [{"channel": 1, "range": 200}]},
      {"x": 120, "y": 0, "label": "VMN2", "protocol": "hybrid",
       "radios": [{"channel": 1, "range": 200}, {"channel": 2, "range": 200}]}
    ]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core.geometry import Vec2
from .core.recording import SqliteRecorder, load_dataset, load_scene_events
from .core.server import InProcessEmulator
from .errors import PoEmError
from .models.radio import Radio, RadioConfig
from .protocols.aodv import AodvProtocol
from .protocols.dsdv import DsdvProtocol
from .protocols.flooding import FloodingProtocol
from .protocols.hybrid import HybridProtocol

__all__ = ["main", "build_parser"]

PROTOCOLS = {
    "hybrid": HybridProtocol,
    "aodv": AodvProtocol,
    "dsdv": DsdvProtocol,
    "flooding": FloodingProtocol,
    "none": None,
}

EXPERIMENTS = (
    "table1", "table2", "fig2", "fig3", "fig5", "fig6", "fig10",
    "ablation", "scale", "sensitivity",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PoEm — portable real-time emulator for multi-radio MANETs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run-scenario", help="headless recorded emulation run")
    run.add_argument("scenario", help="scenario JSON file (timed scene ops)")
    run.add_argument("--nodes", required=True, help="node-spec JSON file")
    run.add_argument("--record", required=True, help="output SQLite path")
    run.add_argument("--until", type=float, required=True,
                     help="emulation end time (seconds)")
    run.add_argument("--seed", type=int, default=0)

    replay = sub.add_parser("replay", help="replay a recording")
    replay.add_argument("recording", help="SQLite recording path")
    replay.add_argument("--fps", type=float, default=2.0)
    replay.add_argument("--svg", help="directory to write SVG frames into")
    replay.add_argument("--width", type=int, default=72)
    replay.add_argument("--height", type=int, default=20)
    replay.add_argument("--summary-only", action="store_true")

    experiment = sub.add_parser(
        "experiment", help="regenerate a table/figure from the paper"
    )
    experiment.add_argument("name", choices=EXPERIMENTS)

    stats = sub.add_parser("stats", help="print a recording's statistics")
    stats.add_argument("recording", help="SQLite recording path")
    stats.add_argument("--top-flows", type=int, default=10)

    export = sub.add_parser(
        "export", help="export a recording for external analysis"
    )
    export.add_argument("recording", help="SQLite recording path")
    export.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    export.add_argument("--out", required=True,
                        help="output file (csv: packets; a *_scene.csv "
                             "sibling is written too)")

    analyze = sub.add_parser(
        "analyze", help="post-emulation forensics report from a recording"
    )
    analyze.add_argument("recording", nargs="?",
                         help="SQLite recording path (optional when only "
                              "--flight is given)")
    analyze.add_argument("--flight", metavar="PATH",
                         help="render a crash flight-recorder JSON "
                              "artifact (the path a worker-crash "
                              "anomaly/ClusterError points at); combine "
                              "with a recording for the full report")
    analyze.add_argument("--format", choices=("text", "json", "html"),
                         default="text")
    analyze.add_argument("--out", help="write the report to a file "
                                       "instead of stdout")
    analyze.add_argument("--window", type=float, default=1.0,
                         help="aggregate/anomaly window width (seconds)")
    analyze.add_argument("--lag-budget", type=float, default=None,
                         help="scheduler-lag spike threshold (seconds; "
                              "default: the run's recorded budget, "
                              "else 0.010)")
    analyze.add_argument("--drift-budget", type=float, default=0.010,
                         help="projected clock-stamp error budget (seconds)")
    analyze.add_argument("--lineage", type=int, default=1, metavar="N",
                         help="number of sample packet lineages to resolve")
    analyze.add_argument("--record-id", type=int, action="append",
                         dest="record_ids", metavar="ID",
                         help="resolve the lineage of this specific packet "
                              "record (repeatable; overrides --lineage)")
    analyze.add_argument("--timeline", metavar="OUT.json",
                         help="also export the recording as Chrome "
                              "trace-event JSON (load in Perfetto: "
                              "https://ui.perfetto.dev)")
    analyze.add_argument("--fail-degraded", action="store_true",
                         help="exit 3 unless the fidelity verdict is "
                              "'real-time' (CI gate on the validity "
                              "envelope)")

    console = sub.add_parser(
        "console", help="interactive operator console on a fresh emulator"
    )
    console.add_argument("--nodes", help="optional node-spec JSON file")
    console.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser("serve", help="start the real-time TCP server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--record", help="optional SQLite recording path")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--profile-hz", type=float, default=None,
                       help="run the continuous sampling profiler at "
                            "this rate (e.g. 97)")

    profile = sub.add_parser(
        "profile",
        help="render a run's CPU profile (collapsed stacks, per-thread "
             "self-time)",
    )
    profile.add_argument(
        "recording", nargs="?",
        help="SQLite recording path — reads the run's persisted "
             "'profile' scene event",
    )
    profile.add_argument(
        "--live", metavar="URL",
        help="fetch from a running deployment's obs endpoint instead "
             "(e.g. http://127.0.0.1:9100)",
    )
    profile.add_argument(
        "--seconds", type=float, default=None,
        help="with --live: sample a fresh N-second window first",
    )
    profile.add_argument(
        "--format", choices=("summary", "collapsed", "json"),
        default="summary",
        help="summary = per-thread self-time table; collapsed = "
             "flamegraph.pl / speedscope input; json = raw snapshot",
    )
    profile.add_argument("--out", help="write the profile to a file "
                                       "instead of stdout")

    lint = sub.add_parser(
        "lint",
        help="concurrency-correctness checks (POEM rules + lock-order "
             "runtime detector + whole-program deep analysis)",
        description="Static and runtime concurrency checks.",
        epilog="exit codes: 0 = clean, 1 = findings (or an unclean "
               "runtime/deep pass, or stale baseline entries), "
               "2 = usage error (bad --changed base, malformed "
               "baseline, unreadable path)",
    )
    lint.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to lint (default: the installed "
             "repro package source)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="sarif = SARIF 2.1.0 for code-scanning upload",
    )
    lint.add_argument(
        "--runtime", action="store_true",
        help="also run a short instrumented virtual-transport emulation "
             "and report the lock-order graph (cycles = potential "
             "deadlocks)",
    )
    lint.add_argument(
        "--deep", action="store_true",
        help="whole-program interprocedural analysis: POEM008 static "
             "shared-state races, POEM009 static lock-order cycles "
             "(cross-checked against --runtime when both are given), "
             "POEM010 cluster-protocol drift; accepted findings live "
             "in the committed baseline",
    )
    lint.add_argument(
        "--baseline", metavar="PATH",
        help="baseline file for --deep (default: lint-baseline.json "
             "discovered upward from the first linted path)",
    )
    lint.add_argument(
        "--changed", nargs="?", const="HEAD", metavar="BASE",
        help="only report findings in files changed versus git BASE "
             "(default HEAD); the --deep model is still built over the "
             "full tree so interprocedural results stay sound",
    )
    lint.add_argument("--out", help="write the report to a file "
                                    "instead of stdout")

    return parser


def _load_nodes(emu: InProcessEmulator, path: str) -> None:
    specs = json.loads(Path(path).read_text())
    if not isinstance(specs, list):
        raise PoEmError("node spec must be a JSON list")
    for spec in specs:
        radios = RadioConfig.of(
            Radio(int(r["channel"]), float(r["range"]))
            for r in spec["radios"]
        )
        name = str(spec.get("protocol", "hybrid")).lower()
        if name not in PROTOCOLS:
            raise PoEmError(
                f"unknown protocol {name!r}; choose from {sorted(PROTOCOLS)}"
            )
        factory = PROTOCOLS[name]
        emu.add_node(
            Vec2(float(spec["x"]), float(spec["y"])),
            radios,
            label=str(spec.get("label", "")),
            protocol=factory() if factory else None,
        )


def _cmd_run_scenario(args: argparse.Namespace) -> int:
    from .scenario import Scenario

    recorder = SqliteRecorder(args.record)
    try:
        emu = InProcessEmulator(seed=args.seed, recorder=recorder)
        _load_nodes(emu, args.nodes)
        script = Scenario.from_json(Path(args.scenario).read_text())
        script.run(emu, until=args.until)
        # Clean-shutdown marker: lets `poem analyze` frame the run
        # without inferring its end from the last packet.
        emu.record_run_summary()
        packets = len(recorder)
        events = len(recorder.scene_events())
        print(
            f"recorded {packets} packet rows and {events} scene events "
            f"to {args.record} ({args.until:.1f}s of emulation, "
            f"{len(emu.scene)} nodes)"
        )
    finally:
        recorder.close()
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .core.replay import ReplayEngine
    from .gui.ascii_view import render_frame
    from .gui.svg import frame_to_svg

    replay = ReplayEngine(args.recording)
    print(replay.summary())
    if not args.summary_only:
        for frame in replay.frames(args.fps):
            print(render_frame(frame, width=args.width, height=args.height))
    if args.svg:
        out = Path(args.svg)
        out.mkdir(parents=True, exist_ok=True)
        n = 0
        for frame in replay.frames(args.fps):
            (out / f"frame_{n:04d}.svg").write_text(frame_to_svg(frame))
            n += 1
        print(f"wrote {n} SVG frames to {out}/")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import (  # noqa: F401 — dispatch table below
        ablation, fig2, fig3, fig5, fig6, fig10, scale, sensitivity,
        table1, table2,
    )

    name = args.name
    if name == "table1":
        print(table1.format_rows(table1.run_table1()))
    elif name == "table2":
        print(table2.format_table(table2.run_table2()))
    elif name == "fig2":
        print(fig2.format_rows(fig2.run_fig2()))
    elif name == "fig3":
        print(fig3.format_rows(fig3.run_fig3()))
    elif name == "fig5":
        print(fig5.format_rows(fig5.run_fig5()))
    elif name == "fig6":
        print(fig6.format_rows(fig6.run_fig6()))
    elif name == "fig10":
        print(fig10.format_result(fig10.run_fig10()))
    elif name == "ablation":
        print(ablation.format_rows(ablation.run_channel_mac_ablation()))
    elif name == "sensitivity":
        print(sensitivity.format_rows(sensitivity.run_sensitivity()))
    elif name == "scale":
        print(scale.format_node_rows(scale.run_node_scaling()))
        print()
        print(scale.format_sharded_rows(scale.run_sharded_scaling()))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .stats.report import build_report, format_report

    print(format_report(build_report(args.recording,
                                     top_flows=args.top_flows)))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .stats.export import export_jsonl, export_packets_csv, export_scene_csv

    dataset = load_dataset(args.recording)
    out = Path(args.out)
    if args.format == "jsonl":
        lines = export_jsonl(dataset, out)
        print(f"wrote {lines} JSON lines to {out}")
    else:
        n_packets = export_packets_csv(dataset, out)
        scene_path = out.with_name(out.stem + "_scene.csv")
        n_events = export_scene_csv(dataset, scene_path)
        print(f"wrote {n_packets} packet rows to {out} and "
              f"{n_events} scene rows to {scene_path}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import Thresholds, analyze
    from .analysis.report import render_html, render_json, render_text
    from .stats.report import recorded_lag_budget

    if args.recording is None and not args.flight:
        raise PoEmError(
            "analyze needs a recording path and/or --flight ARTIFACT"
        )
    if args.flight:
        from .obs.flightrec import format_flight, load_flight

        artifact = load_flight(args.flight)
        if args.format == "json":
            print(json.dumps(artifact, indent=2, sort_keys=True))
        else:
            print(format_flight(artifact))
        if args.recording is None:
            return 0
    dataset = load_dataset(args.recording)
    if args.lag_budget is None:
        args.lag_budget = recorded_lag_budget(dataset)
    thresholds = Thresholds(
        lag_budget=args.lag_budget,
        drift_budget=args.drift_budget,
        window=args.window,
    )
    report = analyze(
        dataset,
        thresholds=thresholds,
        lineage_samples=max(args.lineage, 0),
        lineage_records=args.record_ids,
    )
    if args.format == "json":
        rendered = render_json(report)
    elif args.format == "html":
        rendered = render_html(report)
    else:
        rendered = render_text(report)
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    if args.timeline:
        from .obs.timeline import timeline_from_dataset, write_timeline

        path = write_timeline(args.timeline, timeline_from_dataset(dataset))
        print(f"wrote Perfetto timeline to {path} "
              "(load at https://ui.perfetto.dev)")
    if args.fail_degraded:
        verdict = report.fidelity.get("verdict", "real-time")
        if verdict != "real-time":
            print(f"fidelity verdict: {verdict} — failing as requested")
            return 3
    return 0


def _cmd_console(args: argparse.Namespace) -> int:
    from .gui.console import PoEmConsole

    emu = InProcessEmulator(seed=args.seed)
    if args.nodes:
        _load_nodes(emu, args.nodes)
    PoEmConsole(emu).cmdloop()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .core.tcpserver import PoEmServer

    recorder = SqliteRecorder(args.record) if args.record else None
    server = PoEmServer(
        host=args.host, port=args.port, seed=args.seed, recorder=recorder,
        profile_hz=args.profile_hz,
    )
    host, port = server.start()
    print(f"PoEm server listening on {host}:{port} (Ctrl-C to stop)")
    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        stop.wait()
    finally:
        server.stop()
        if recorder is not None:
            recorder.close()
        print("server stopped")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Render a CPU profile from a recording or a live deployment."""
    from .obs.profiler import format_profile

    if bool(args.recording) == bool(args.live):
        raise PoEmError(
            "profile needs exactly one source: a recording path or "
            "--live URL"
        )
    if args.live:
        import urllib.request

        url = args.live.rstrip("/") + "/profile?format=json"
        if args.seconds:
            url += f"&seconds={float(args.seconds)}"
        try:
            with urllib.request.urlopen(url, timeout=(
                float(args.seconds or 0) + 10.0
            )) as resp:
                snapshot = json.loads(resp.read().decode())
        except OSError as exc:
            raise PoEmError(f"cannot fetch {url}: {exc}") from exc
    else:
        if args.seconds:
            raise PoEmError("--seconds only applies to --live profiles")
        snapshots = [
            e.details for e in load_scene_events(args.recording)
            if e.kind == "profile"
        ]
        if not snapshots:
            raise PoEmError(
                f"{args.recording}: no 'profile' scene event — was the "
                "run profiled (profile_hz)?"
            )
        snapshot = snapshots[-1]  # the terminal (most complete) profile
    stacks = {
        str(k): int(v) for k, v in (snapshot.get("stacks") or {}).items()
    }
    if args.format == "json":
        rendered = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    elif args.format == "collapsed":
        rendered = "".join(
            f"{key} {count}\n"
            for key, count in sorted(
                stacks.items(), key=lambda kv: (-kv[1], kv[0])
            )
        )
    else:
        header = (
            f"role={snapshot.get('role', '?')} "
            f"hz={snapshot.get('hz', '?')} "
            f"samples={snapshot.get('samples', '?')} "
            f"paused={snapshot.get('paused', 0)}\n"
        )
        rendered = header + format_profile(stacks) + "\n"
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"wrote {args.format} profile to {args.out}")
    else:
        print(rendered, end="")
    return 0


def _changed_files(base: str) -> "set[Path]":
    """Python files changed versus git ``base`` (usage error -> None)."""
    import subprocess

    proc = subprocess.run(
        ["git", "diff", "--name-only", base, "--", "*.py"],
        capture_output=True,
        text=True,
        cwd=str(Path(__file__).resolve().parent),
    )
    if proc.returncode != 0:
        raise _LintUsageError(
            f"--changed: git diff against {base!r} failed: "
            f"{proc.stderr.strip() or 'not a git checkout?'}"
        )
    toplevel = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        capture_output=True,
        text=True,
        cwd=str(Path(__file__).resolve().parent),
    ).stdout.strip()
    root = Path(toplevel) if toplevel else Path.cwd()
    return {
        (root / line).resolve()
        for line in proc.stdout.splitlines()
        if line.strip()
    }


class _LintUsageError(Exception):
    """A ``poem lint`` invocation problem (exit code 2, not 1)."""


def _cmd_lint(args: argparse.Namespace) -> int:
    """Exit 0 on a clean tree, 1 on findings, 2 on a usage error."""
    from .lint import (
        lint_paths,
        render_json,
        render_sarif,
        render_text,
        run_deep,
        run_runtime_check,
    )

    try:
        paths = list(args.paths) if args.paths else [
            str(Path(__file__).resolve().parent)
        ]
        changed: Optional[set] = None
        if args.changed is not None:
            changed = _changed_files(args.changed)
        findings, checked = lint_paths(paths)
        runtime = None
        runtime_report = None
        if args.runtime:
            runtime_report = run_runtime_check()
            runtime = runtime_report.as_dict()
        deep = None
        if args.deep:
            runtime_edges = None
            if runtime_report is not None:
                runtime_edges = sorted(runtime_report.graph.edges())
            baseline = Path(args.baseline) if args.baseline else None
            try:
                result = run_deep(
                    paths, baseline=baseline, runtime_edges=runtime_edges
                )
            except (ValueError, OSError) as exc:
                raise _LintUsageError(str(exc)) from exc
            findings = findings + [f for f, _ in result.findings]
            deep = result.as_dict()
        if changed is not None:
            findings = [
                f for f in findings if Path(f.path).resolve() in changed
            ]
        findings.sort(key=lambda f: (f.path, f.line, f.rule))
    except _LintUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        rendered = render_json(findings, checked, runtime, deep)
    elif args.format == "sarif":
        rendered = render_sarif(
            findings, src_root=Path(__file__).resolve().parent.parent
        )
    else:
        rendered = render_text(findings, checked, runtime, deep)
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"wrote {args.format} lint report to {args.out}")
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    # `findings` already folds in the deep pass's actionable findings
    # (filtered by --changed when given); stale baseline entries fail
    # the gate regardless so the baseline cannot rot.
    clean = (
        not findings
        and (runtime is None or runtime.get("clean", False))
        and (deep is None or not deep.get("stale_baseline_entries"))
    )
    return 0 if clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run-scenario": _cmd_run_scenario,
        "replay": _cmd_replay,
        "experiment": _cmd_experiment,
        "stats": _cmd_stats,
        "export": _cmd_export,
        "analyze": _cmd_analyze,
        "console": _cmd_console,
        "serve": _cmd_serve,
        "profile": _cmd_profile,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except PoEmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

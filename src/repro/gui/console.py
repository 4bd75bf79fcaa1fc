"""Interactive operator console — the paper's GUI loop, as a REPL.

"Users can do those operations on the GUI in real time to set an
arbitrary scene for tests, e.g. dragging and dropping VMNs anywhere,
double-clicking the VMN to activate configuration dialogue-boxes anytime"
(§3.2).  Each of those operations is one console command here, driving a
live :class:`~repro.core.server.InProcessEmulator`:

=============================  =============================================
command                         effect
=============================  =============================================
``show``                        render the scene (ASCII)
``nodes``                       list VMNs with positions/radios
``move <id> <x> <y>``           drag-and-drop a VMN
``range <id> <radio> <r>``      change a radio's range
``channel <id> <radio> <ch>``   retune a radio
``remove <id>``                 remove a VMN
``routes <id>``                 inspect a VMN's routing table (Table 2!)
``neighbors <id> <channel>``    inspect NT(id, channel)
``run <seconds>``               advance emulation time
``stats``                       pipeline counters
``health``                      supervision/liveness snapshot
``metrics [filter]``            Prometheus-text telemetry snapshot
``trace [n]``                   recent sampled pipeline spans
``profile [start|stop|dump]``   wall-clock sampling profiler (flamegraphs)
``timeline [out.json]``         export a Perfetto/Chrome trace timeline
``analyze [record-id]``         offline forensics report / packet lineage
``flight [dump]``               crash flight-recorder rings (pre-mortem)
``lint [runtime|deep]``         POEM rule check (+ lock-order / deep)
``quit``                        leave the console
=============================  =============================================

(``timeline`` here exports the *wall-clock* Chrome trace-event JSON from
:mod:`repro.obs.timeline`; the ASCII *emulation-time* replay view is
:func:`repro.gui.ascii_view.render_frame`, printed by ``poem replay``.)

Built on :mod:`cmd`, so it is scriptable in tests via ``onecmd`` and
usable interactively via ``PoEmConsole(emulator).cmdloop()``.
"""

from __future__ import annotations

import cmd
from typing import Optional

from ..core.geometry import Vec2
from ..core.ids import ChannelId, NodeId, RadioIndex
from ..core.server import InProcessEmulator
from ..errors import PoEmError
from .ascii_view import render_scene

__all__ = ["PoEmConsole"]


class PoEmConsole(cmd.Cmd):
    """Line-oriented operator console over a live emulator."""

    intro = "PoEm operator console. Type help or ? for commands.\n"
    prompt = "poem> "

    def __init__(self, emulator: InProcessEmulator, **kwargs) -> None:
        super().__init__(**kwargs)
        self.emulator = emulator

    # -- helpers -----------------------------------------------------------------

    def _say(self, text: str) -> None:
        self.stdout.write(text + "\n")

    def _fail(self, message: str) -> None:
        self._say(f"error: {message}")

    def _parse(self, arg: str, types: tuple, usage: str) -> Optional[tuple]:
        parts = arg.split()
        if len(parts) != len(types):
            self._fail(f"usage: {usage}")
            return None
        try:
            return tuple(t(p) for t, p in zip(types, parts))
        except ValueError:
            self._fail(f"usage: {usage}")
            return None

    # -- inspection ---------------------------------------------------------------

    def do_show(self, arg: str) -> None:
        """show — render the current scene as ASCII art."""
        if len(self.emulator.scene) == 0:
            self._say("(empty scene)")
            return
        self._say(render_scene(self.emulator.scene, width=70, height=18))

    def do_nodes(self, arg: str) -> None:
        """nodes — list every VMN with position and radios."""
        scene = self.emulator.scene
        if len(scene) == 0:
            self._say("(no nodes)")
            return
        for node_id in sorted(scene.node_ids()):
            pos = scene.position(node_id)
            radios = ", ".join(
                f"radio{i}: ch{int(r.channel)} R={r.range:g}"
                for i, r in enumerate(scene.radios(node_id))
            )
            self._say(
                f"  {int(node_id):3d} {scene.label(node_id):<8} "
                f"({pos.x:8.1f}, {pos.y:8.1f})  {radios}"
            )

    def do_routes(self, arg: str) -> None:
        """routes <id> — inspect a VMN's routing table in real time."""
        parsed = self._parse(arg, (int,), "routes <id>")
        if parsed is None:
            return
        (node,) = parsed
        try:
            host = self.emulator.host(NodeId(node))
        except PoEmError as exc:
            self._fail(str(exc))
            return
        if host.protocol is None:
            self._say("(no protocol embedded)")
            return
        entries = host.protocol.route_summary()
        self._say(f"# of Routing Entries: {len(entries)}")
        for entry in entries:
            self._say(f"  {entry}")

    def do_neighbors(self, arg: str) -> None:
        """neighbors <id> <channel> — show NT(id, channel)."""
        parsed = self._parse(arg, (int, int), "neighbors <id> <channel>")
        if parsed is None:
            return
        node, channel = parsed
        table = self.emulator.neighbors.neighbors(
            NodeId(node), ChannelId(channel)
        )
        self._say(
            f"NT({node}, {channel}) = "
            + (", ".join(str(int(n)) for n in sorted(table)) or "(empty)")
        )

    def do_stats(self, arg: str) -> None:
        """stats — server pipeline counters."""
        engine = self.emulator.engine
        line = (
            f"t={self.emulator.clock.now():.3f}s  "
            f"ingested={engine.ingested}  forwarded={engine.forwarded}  "
            f"dropped={engine.dropped}  scheduled={len(engine.schedule)}"
        )
        overload = getattr(self.emulator, "overload", None)
        if overload is not None:
            line += f"  overload={overload.state}"
        self._say(line)

    def do_health(self, arg: str) -> None:
        """health — supervision/liveness snapshot (fault-tolerance pane)."""
        health_fn = getattr(self.emulator, "health", None)
        if health_fn is None:
            self._fail("this emulator does not expose health()")
            return
        from ..stats.report import format_health

        # Degrade gracefully: a half-torn-down deployment (or a broken
        # health source) must yield an error line, not a traceback that
        # kills the operator's console.
        try:
            snapshot = health_fn()
            rendered = format_health(snapshot)
        except Exception as exc:  # noqa: BLE001 — operator surface
            self._fail(f"health unavailable: {type(exc).__name__}: {exc}")
            return
        self._say(rendered)

    def do_metrics(self, arg: str) -> None:
        """metrics [name-substring] — Prometheus-text telemetry snapshot."""
        telemetry = getattr(self.emulator, "telemetry", None)
        if telemetry is None or not getattr(telemetry, "enabled", False):
            self._fail("telemetry is not enabled on this emulator")
            return
        try:
            text = telemetry.render()
        except Exception as exc:  # noqa: BLE001 — operator surface
            self._fail(f"metrics unavailable: {type(exc).__name__}: {exc}")
            return
        needle = arg.strip()
        if needle:
            text = "\n".join(
                line for line in text.splitlines() if needle in line
            )
            if not text:
                self._say(f"(no metrics matching {needle!r})")
                return
        self._say(text.rstrip("\n"))

    def do_analyze(self, arg: str) -> None:
        """analyze [record-id] — offline forensics over the live recorder.

        With no argument: the full text report (clock audit, anomalies,
        windowed aggregates, one sample lineage).  With a packet record
        id: that packet's skew-corrected lineage only.
        """
        recorder = getattr(self.emulator, "recorder", None)
        if recorder is None:
            self._fail("this emulator does not expose a recorder")
            return
        try:
            from ..analysis import analyze, load_dataset
            from ..analysis.lineage import format_lineage, lineage
            from ..analysis.report import render_text

            needle = arg.strip()
            if needle:
                dataset = load_dataset(recorder)
                self._say(format_lineage(lineage(dataset, int(needle))))
            else:
                self._say(render_text(analyze(recorder)).rstrip("\n"))
        except ValueError:
            self._fail("usage: analyze [record-id]")
        except Exception as exc:  # noqa: BLE001 — operator surface
            self._fail(f"analysis failed: {type(exc).__name__}: {exc}")

    def do_flight(self, arg: str) -> None:
        """flight [dump] — the process's crash flight recorder: the
        last structured events, sampled spans and overload transitions
        it would dump on death.  ``flight dump`` writes the JSON
        artifact now and prints its path.
        """
        try:
            from ..obs import flightrec

            recorder = flightrec.get_default()
            if recorder is None:
                self._fail("no flight recorder installed in this process")
                return
            if arg.strip() == "dump":
                path = recorder.dump(reason="console")
                if path is None:
                    self._fail("flight dump failed (artifact unwritable)")
                else:
                    self._say(f"flight artifact written to {path}")
                return
            self._say(
                flightrec.format_flight(
                    recorder.snapshot(reason="console")
                ).rstrip("\n")
            )
        except Exception as exc:  # noqa: BLE001 — operator surface
            self._fail(f"flight failed: {type(exc).__name__}: {exc}")

    def do_lint(self, arg: str) -> None:
        """lint [runtime|deep] — concurrency-correctness check of the
        installed package source (POEM rules); ``lint runtime`` also runs
        a short instrumented emulation and reports the lock-order graph;
        ``lint deep`` runs the whole-program race/lock-order/protocol
        analysis gated by the committed baseline.
        """
        mode = arg.strip().lower()
        if mode not in ("", "runtime", "deep"):
            self._fail("usage: lint [runtime|deep]")
            return
        try:
            from pathlib import Path

            from ..lint import (
                lint_paths,
                render_text,
                run_deep,
                run_runtime_check,
            )

            pkg_root = str(Path(__file__).resolve().parent.parent)
            findings, checked = lint_paths([pkg_root])
            runtime = None
            deep = None
            if mode == "runtime":
                runtime = run_runtime_check().as_dict()
            elif mode == "deep":
                result = run_deep([pkg_root])
                findings = findings + [f for f, _ in result.findings]
                deep = result.as_dict()
            self._say(
                render_text(findings, checked, runtime, deep).rstrip("\n")
            )
        except Exception as exc:  # noqa: BLE001 — operator surface
            self._fail(f"lint failed: {type(exc).__name__}: {exc}")

    def do_trace(self, arg: str) -> None:
        """trace [n] — show the n most recent sampled pipeline spans."""
        telemetry = getattr(self.emulator, "telemetry", None)
        tracer = getattr(telemetry, "tracer", None)
        if tracer is None:
            self._fail("pipeline tracing is not enabled on this emulator")
            return
        n = 5
        if arg.strip():
            try:
                n = max(int(arg.strip()), 1)
            except ValueError:
                self._fail("usage: trace [n]")
                return
        from ..obs.tracing import format_span

        spans = tracer.recent(n)
        if not spans:
            self._say("(no sampled spans yet)")
            return
        for span in spans:
            self._say(format_span(span))

    def do_profile(self, arg: str) -> None:
        """profile [start [hz] | stop | dump [path]] — the wall-clock
        sampling profiler.  Bare ``profile`` prints the per-thread
        self-time summary; ``dump`` writes collapsed stacks
        (flamegraph.pl / speedscope input).
        """
        try:
            from ..obs import profiler as profiler_mod
            from ..obs.profiler import SamplingProfiler, format_profile

            parts = arg.split()
            verb = parts[0] if parts else ""
            prof = getattr(self.emulator, "profiler", None)
            if prof is None:
                prof = profiler_mod.get_default()
            if verb == "start":
                if prof is not None and prof.running:
                    self._fail("profiler already running (profile stop first)")
                    return
                kwargs = {"hz": float(parts[1])} if len(parts) > 1 else {}
                prof = SamplingProfiler(
                    role="console",
                    overload=getattr(self.emulator, "overload", None),
                    **kwargs,
                )
                profiler_mod.set_default(prof)
                prof.start()
                self._say(f"profiler sampling at {prof.hz:g} Hz")
                return
            if verb not in ("", "stop", "dump"):
                self._fail("usage: profile [start [hz] | stop | dump [path]]")
                return
            if prof is None:
                self._fail(
                    "no profiler installed — ``profile start [hz]`` or "
                    "construct the emulator with profile_hz="
                )
                return
            if verb == "stop":
                prof.stop()
                self._say(format_profile(prof.folded()).rstrip("\n"))
                return
            if verb == "dump":
                path = parts[1] if len(parts) > 1 else "poem-profile.folded"
                with open(path, "w") as fh:
                    fh.write(prof.collapsed())
                self._say(
                    f"collapsed stacks written to {path} "
                    "(flamegraph.pl or https://speedscope.app)"
                )
                return
            self._say(format_profile(prof.folded()).rstrip("\n"))
        except Exception as exc:  # noqa: BLE001 — operator surface
            self._fail(f"profile failed: {type(exc).__name__}: {exc}")

    def do_timeline(self, arg: str) -> None:
        """timeline [out.json] — export the wall-clock Chrome
        trace-event timeline (spans, profiler samples, scene events) for
        https://ui.perfetto.dev.  For the ASCII *emulation-time* replay
        view of a recording, use ``poem analyze`` instead.
        """
        try:
            from ..obs import profiler as profiler_mod
            from ..obs.timeline import timeline_from_dataset, write_timeline

            path = arg.strip() or "poem-timeline.json"
            prof = getattr(self.emulator, "profiler", None)
            if prof is None:
                prof = profiler_mod.get_default()
            recorder = getattr(self.emulator, "recorder", None)
            if recorder is None:
                self._fail("emulator has no recorder to export from")
                return
            write_timeline(
                path, timeline_from_dataset(recorder, profiler=prof)
            )
            self._say(
                f"timeline written to {path} — open in "
                "https://ui.perfetto.dev (chrome://tracing also works)"
            )
        except Exception as exc:  # noqa: BLE001 — operator surface
            self._fail(f"timeline failed: {type(exc).__name__}: {exc}")

    # -- scene operations ---------------------------------------------------------------

    def do_move(self, arg: str) -> None:
        """move <id> <x> <y> — drag-and-drop a VMN to a new position."""
        parsed = self._parse(arg, (int, float, float), "move <id> <x> <y>")
        if parsed is None:
            return
        node, x, y = parsed
        try:
            self.emulator.scene.move_node(NodeId(node), Vec2(x, y))
            self._say(f"moved {node} to ({x:g}, {y:g})")
        except PoEmError as exc:
            self._fail(str(exc))

    def do_range(self, arg: str) -> None:
        """range <id> <radio> <r> — change a radio's range."""
        parsed = self._parse(arg, (int, int, float), "range <id> <radio> <r>")
        if parsed is None:
            return
        node, radio, r = parsed
        try:
            self.emulator.scene.set_radio_range(
                NodeId(node), RadioIndex(radio), r
            )
            self._say(f"node {node} radio {radio} range -> {r:g}")
        except PoEmError as exc:
            self._fail(str(exc))

    def do_channel(self, arg: str) -> None:
        """channel <id> <radio> <ch> — retune a radio."""
        parsed = self._parse(arg, (int, int, int),
                             "channel <id> <radio> <ch>")
        if parsed is None:
            return
        node, radio, ch = parsed
        try:
            self.emulator.scene.set_radio_channel(
                NodeId(node), RadioIndex(radio), ChannelId(ch)
            )
            self._say(f"node {node} radio {radio} channel -> {ch}")
        except PoEmError as exc:
            self._fail(str(exc))

    def do_remove(self, arg: str) -> None:
        """remove <id> — take a VMN out of the scene."""
        parsed = self._parse(arg, (int,), "remove <id>")
        if parsed is None:
            return
        (node,) = parsed
        try:
            self.emulator.remove_node(NodeId(node))
            self._say(f"removed node {node}")
        except PoEmError as exc:
            self._fail(str(exc))

    # -- time -------------------------------------------------------------------------------

    def do_run(self, arg: str) -> None:
        """run <seconds> — advance emulation time."""
        parsed = self._parse(arg, (float,), "run <seconds>")
        if parsed is None:
            return
        (seconds,) = parsed
        if seconds <= 0:
            self._fail("duration must be positive")
            return
        self.emulator.run_for(seconds)
        self._say(f"emulation clock now {self.emulator.clock.now():.3f}s")

    # -- exit -----------------------------------------------------------------------------------

    def do_quit(self, arg: str) -> bool:
        """quit — leave the console."""
        return True

    do_exit = do_quit
    do_EOF = do_quit

    def emptyline(self) -> None:  # don't repeat the last command on Enter
        pass

    def default(self, line: str) -> None:
        self._fail(f"unknown command: {line.split()[0]!r} (try 'help')")

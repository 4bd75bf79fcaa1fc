"""Benchmark-owned launcher: one ``PoEmServer`` in its own process.

The server is built with constructor defaults only, which is what
``poem serve`` does, so the TCP workloads measure the deployment a user
gets.  With ``--trace 1`` the launcher additionally installs the timing
wrappers of :mod:`spans` around the server's public functions and builds
the server with ``Telemetry(sample_every=1)`` so the program's own stage
histograms see every packet.

Protocol (one JSON object per line on stdout, commands on stdin):

* on start: ``{"event": "ready", "port": ..., "pid": ..., "epoch": ...}``
* ``begin``  → start of the timed phase: aggregates are reset
* ``sample`` → ``{"event": "sample", "health": ..., "layer": ...}``
* ``stop`` or EOF → the server stops, spans are written, the process exits
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import procstat  # noqa: E402  (needs the path set above)
from spans import stat  # noqa: E402
from summary import per  # noqa: E402


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class _ServerProbe:
    """Trace-mode wrappers around the server process's layers."""

    def __init__(self, server) -> None:
        from layers import CoreProbe
        from repro.net import framing, messages
        from spans import SpanLog

        self.server = server
        self.log = SpanLog()
        self.frames_sent = 0
        self.core = CoreProbe(
            self.log, engine=server.engine, neighbors=server.neighbors,
            scene=server.scene, recorder=server.recorder,
            overload=server.overload, realtime=True,
        )
        # tcpserver reaches these through the module object, so patching
        # the module attribute covers every call it makes.
        self.log.wrap(messages, "encode_packet_binary", "net.messages.encode")
        self.log.wrap(messages, "decode_packet_binary", "net.messages.decode")
        self.log.wrap(framing, "send_frames", "net.framing.send_frames",
                      observe=self._saw_send)
        self.log.wrap(framing, "recv_frame", "net.framing.recv_frame")
        self.t_begin = time.perf_counter()

    def _saw_send(self, args: tuple, _result) -> None:
        self.frames_sent += len(args[1])

    def begin(self) -> None:
        self.core.begin()
        self.frames_sent = 0
        self.t_begin = time.perf_counter()

    def sample(self) -> dict:
        wall = time.perf_counter() - self.t_begin
        layer = self.core.metrics(wall, self.server.telemetry)
        stats = self.log.layers()
        layer.update({
            "net.framing.send_frames_us":
                stat(stats, "net.framing.send_frames", "mean_us"),
            "net.framing.frames_per_send": per(
                self.frames_sent,
                stat(stats, "net.framing.send_frames", "calls"),
            ),
        })
        return {
            "layer": layer,
            # The codec also runs in the generator's clients; it folds
            # both sides into one mean.
            "codec": {
                side: [stat(stats, f"net.messages.{side}", "calls"),
                       stat(stats, f"net.messages.{side}", "total_s")]
                for side in ("encode", "decode")
            },
            "self_times": {k: v["self_s"] for k, v in stats.items()},
            "ctx_switches": procstat.ctx_switches(os.getpid()),
            "wall_s": wall,
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="write this process's spans here on exit")
    args = parser.parse_args()

    from repro.core.tcpserver import PoEmServer
    from repro.obs.telemetry import Telemetry

    if args.trace:
        server = PoEmServer(telemetry=Telemetry(sample_every=1))
        probe = _ServerProbe(server)
    else:
        server = PoEmServer()  # exactly what `poem serve` constructs
        probe = None
    _host, port = server.start()
    _emit({
        "event": "ready", "port": port, "pid": os.getpid(),
        "epoch": server.clock.epoch,
    })
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "begin":
                if probe is not None:
                    probe.begin()
                _emit({"event": "begun"})
            elif command == "sample":
                out = {
                    "event": "sample",
                    "health": server.health(),
                    "cpu_user_s": os.times().user,
                    "cpu_sys_s": os.times().system,
                }
                if probe is not None:
                    out.update(probe.sample())
                _emit(out)
            elif command == "stop":
                break
    finally:
        server.stop()
        if probe is not None:
            probe.log.unwrap_all()
            if args.spans:
                from spans import write_span_file

                write_span_file(
                    args.spans, "server", probe.log.rows(),
                    probe.log.dropped(),
                )
    _emit({"event": "stopped"})
    return 0


if __name__ == "__main__":
    sys.exit(main())

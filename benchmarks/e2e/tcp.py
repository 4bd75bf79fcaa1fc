"""``tcp_paced`` and ``tcp_flood``: A→B unicast through a ``PoEmServer``
subprocess over the host's loopback interface (not a real link).

The generator is one process with one pacing/sending thread and two
``PoEmClient`` connections (sender A, receiver B); the clients' receiver
threads are the client layer, not extra load.  The sender paces with
``time.sleep`` to the due time and never busy-spins: a spinning sender
starves B's receiver thread under the GIL.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Optional

import checks
import inputs
import procstat
from harness import (
    HERE, SETUP_REPEATS, WARM_SECONDS, PhaseResult, repeated_setup,
    windows_from,
)
from layers import overload_metrics
from spans import SpanLog, stat, write_span_file
from summary import per, percentile, windowed_p99

from repro.core.client import PoEmClient
from repro.core.clock import RealTimeClock
from repro.core.geometry import Vec2
from repro.core.ids import ChannelId
from repro.models.radio import RadioConfig
from repro.net import framing, messages

CHANNEL = ChannelId(1)
BANDWIDTH = 11e6  # the default link model a TCP client registers with

#: Open loop at about a quarter of capacity; 55 000 emulated bits give a
#: configured link delay of exactly 5.000 ms at 11 Mb/s.
PACED_RATE = 2000.0
PACED_PAYLOAD = 1024
PACED_SIZE_BITS = 55_000
#: Delay error within which a packet counts as on time: 20 % of the
#: configured delay.
ONTIME_LIMIT = 0.001

#: Closed loop, smallest frames, where per-packet cost dominates.
FLOOD_WINDOW = 32
FLOOD_PAYLOAD = 16
FLOOD_SIZE_BITS = 512
#: Packets after which the server's resident memory is read, so that
#: ``peak_rss_mb`` compares equal work.
FLOOD_RSS_PACKETS = 25_000

#: Packets per equal-work window of the CPU cost (0.25-0.5 s each).  The
#: server's CPU clock is read from /proc at each boundary (0.1 ms): asking
#: the server itself would stall the sender until the server's main
#: thread got the GIL, up to 5 ms.
WINDOW_PACKETS = {"tcp_paced": 500, "tcp_flood": 4000}
#: Arrivals per window of the delivery rate, cut from B's arrival stamps.
RATE_WINDOW = 500

#: Fixed work inside set-up: first-use costs on both sides of the socket.
COLD_PACKETS = 200
REPLY_TIMEOUT = 30.0
DRAIN_TIMEOUT = 3.0
LATE_LIMIT_US = 1000.0

_perf = time.perf_counter


class ServerProcess:
    """The server subprocess and its line-per-message control channel."""

    def __init__(self, traced: bool, spans_path: Optional[str]) -> None:
        cmd = [sys.executable, str(HERE / "server_proc.py"),
               "--trace", "1" if traced else "0"]
        if spans_path:
            cmd += ["--spans", spans_path]
        # The server's structured log goes to stderr; failures it
        # reports are read from health() instead.
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        try:
            ready = self._read("ready")
        except Exception:
            self.kill()
            raise
        self.pid = int(ready["pid"])
        self.port = int(ready["port"])
        self.epoch = float(ready["epoch"])

    def _read(self, event: str) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"server process gave no {event!r} (exit code "
                f"{self.proc.poll()})"
            )
        msg = json.loads(line)
        if msg.get("event") != event:
            raise RuntimeError(f"expected {event!r}, got {msg!r}")
        return msg

    def command(self, name: str, reply: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._read(reply)

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self) -> None:
        if self.alive():
            try:
                self.command("stop", "stopped")
            except (RuntimeError, OSError):
                pass
        try:
            self.proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            self.kill()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()


class _CountingSocket:
    """``transport_wrapper`` for client B in a traced run: counts the
    ``recv`` calls the framing layer makes per delivered packet."""

    def __init__(self, sock, counter: list) -> None:
        self._sock = sock
        self._counter = counter

    def recv(self, n: int) -> bytes:
        self._counter[0] += 1
        return self._sock.recv(n)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sock, name)


class Session:
    """Server subprocess + sender A + receiver B, ready to carry traffic."""

    def __init__(self, seed: int, payload_bytes: int, size_bits: int,
                 *, traced: bool, spans_path: Optional[str]) -> None:
        self.size_bits = size_bits
        self.link_delay = size_bits / BANDWIDTH
        self.tail = inputs.filler(seed, "tcp", payload_bytes - inputs.SEQ_BYTES)
        self.next_seq = 0
        self.arrivals: list[tuple[float, Any]] = []
        self.window: Optional[threading.Semaphore] = None
        self.recv_calls = [0]
        self.server = ServerProcess(traced, spans_path)
        self.a = self.b = None
        try:
            address = ("127.0.0.1", self.server.port)
            radios = RadioConfig.single(int(CHANNEL), 100.0)
            self.clock_a = RealTimeClock()
            self.a = PoEmClient(address, Vec2(0.0, 0.0), radios,
                                local_clock=self.clock_a)
            wrapper = (
                (lambda s: _CountingSocket(s, self.recv_calls))
                if traced else None
            )
            self.b = PoEmClient(address, Vec2(10.0, 0.0), radios,
                                transport_wrapper=wrapper)
            self.a.connect()
            self.b_id = self.b.connect()
            self.b.on_app_packet = self._arrived
            # Cold pass: a fixed burst through every layer once.
            sent = self.burst(COLD_PACKETS)
            if not self.drain(sent):
                raise RuntimeError("cold pass: packets never arrived")
        except Exception:
            self.close()
            raise

    def _arrived(self, packet) -> None:
        self.arrivals.append((_perf(), packet))
        window = self.window
        if window is not None:
            window.release()

    def expected(self, seq: int) -> bytes:
        return inputs.payload(seq, self.tail)

    def send(self) -> None:
        seq = self.next_seq
        self.next_seq = seq + 1
        self.a.transmit(self.b_id, inputs.payload(seq, self.tail),
                        channel=CHANNEL, size_bits=self.size_bits)

    def sample(self) -> tuple[float, float, int]:
        """(time, server CPU seconds, packets delivered so far)."""
        cpu_s = procstat.cpu_seconds(self.server.pid)
        return (_perf(), cpu_s, len(self.arrivals))

    def burst(self, n: int) -> int:
        self.arrivals = []
        for _ in range(n):
            self.send()
        return n

    def drain(self, expected: int) -> bool:
        """Wait for the last packets in flight; False on timeout."""
        deadline = _perf() + DRAIN_TIMEOUT
        while len(self.arrivals) < expected:
            if _perf() > deadline:
                return False
            time.sleep(0.002)
        return True

    def close(self) -> None:
        for client in (self.a, self.b):
            if client is not None:
                try:
                    client.close()
                except Exception:  # teardown must reach the server
                    pass
        self.server.stop()


# -- load generators ----------------------------------------------------------


def paced(session: Session, seconds: float) -> dict[str, Any]:
    """Open loop: packet ``i`` is due at ``t0 + i / rate`` whatever
    happened to the ones before it."""
    n = max(int(seconds * PACED_RATE), 1)
    interval = 1.0 / PACED_RATE
    first = session.next_seq
    session.arrivals = []
    sent_at = [0.0] * n
    every = WINDOW_PACKETS["tcp_paced"]
    samples = [session.sample()]
    t0 = _perf() + 0.005
    sleep = time.sleep
    for i in range(n):
        wait = t0 + i * interval - _perf()
        if wait > 0:
            sleep(wait)
        sent_at[i] = _perf()
        session.send()
        if (i + 1) % every == 0:
            samples.append(session.sample())
    done = _perf()
    drained = session.drain(n)
    end = max(done, session.arrivals[-1][0]) if session.arrivals else done
    return {
        "first_seq": first, "sent": n, "t0": t0, "wall": end - t0,
        "due": [t0 + i * interval for i in range(n)],
        "sent_at": sent_at, "drained": drained, "rss_mb": None,
        "samples": samples,
    }


def flood(session: Session, seconds: float) -> dict[str, Any]:
    """Closed loop: at most ``FLOOD_WINDOW`` packets in flight; the next
    one goes out when B's receiver thread reports an arrival."""
    first = session.next_seq
    session.arrivals = []
    window = session.window = threading.Semaphore(FLOOD_WINDOW)
    sent_at: list[float] = []
    rss_mb = None
    stalled = False
    every = WINDOW_PACKETS["tcp_flood"]
    samples = [session.sample()]
    t0 = _perf()
    deadline = t0 + seconds
    try:
        while True:
            if not window.acquire(timeout=DRAIN_TIMEOUT):
                stalled = True
                break
            now = _perf()
            if now >= deadline:
                break
            sent_at.append(now)
            session.send()
            if len(sent_at) % every == 0:
                samples.append(session.sample())
            if len(sent_at) == FLOOD_RSS_PACKETS:
                rss_mb = procstat.peak_rss_mb(session.server.pid)
        end = _perf()
        drained = session.drain(len(sent_at)) and not stalled
    finally:
        session.window = None
    return {
        "first_seq": first, "sent": len(sent_at), "t0": t0,
        "wall": end - t0, "due": sent_at, "sent_at": sent_at,
        "drained": drained, "rss_mb": rss_mb, "end": end,
        "samples": samples,
    }


# -- one workload run ---------------------------------------------------------

SPECS: dict[str, dict[str, Any]] = {
    "tcp_paced": {
        "payload": PACED_PAYLOAD, "size_bits": PACED_SIZE_BITS,
        "drive": paced,
    },
    "tcp_flood": {
        "payload": FLOOD_PAYLOAD, "size_bits": FLOOD_SIZE_BITS,
        "drive": flood,
    },
}


def run(
    name: str,
    seed: int,
    seconds: float,
    *,
    traced: bool = False,
    setup_repeats: int = SETUP_REPEATS,
    out_dir: Optional[str] = None,
) -> PhaseResult:
    spec = SPECS[name]
    drive: Callable[[Session, float], dict] = spec["drive"]
    spans_path = (
        os.path.join(out_dir, f"spans-{name}-server.json")
        if traced and out_dir else None
    )
    session, setup_s, setups = repeated_setup(
        lambda: Session(seed, spec["payload"], spec["size_bits"],
                        traced=traced, spans_path=spans_path),
        Session.close, setup_repeats,
    )
    log: Optional[SpanLog] = None
    try:
        if traced:
            log = SpanLog()
            log.wrap(session.a, "transmit", "core.client.transmit")
            log.wrap(messages, "encode_packet_binary", "net.messages.encode")
            log.wrap(messages, "decode_packet_binary", "net.messages.decode")
            log.wrap(framing, "recv_frame", "net.framing.recv_frame")
        drive(session, WARM_SECONDS)

        server = session.server
        session.recv_calls[0] = 0
        if log is not None:
            log.reset_stats()
        server.command("begin", "begun")
        before = server.command("sample", "sample")
        gen_cpu0 = time.process_time()
        drove = drive(session, seconds)
        gen_cpu = time.process_time() - gen_cpu0
        after = server.command("sample", "sample")
        alive = server.alive()
        rss_mb = drove["rss_mb"]
        rss_fixed = rss_mb is not None or name == "tcp_paced"
        if rss_mb is None:
            rss_mb = procstat.peak_rss_mb(server.pid)
        threads = procstat.threads(server.pid)
        result = _assess(name, session, drove, before, after)
        _, result.cost_windows = windows_from(drove["samples"])
        stamps = [t for t, _ in session.arrivals][::RATE_WINDOW]
        result.rate_windows = [
            RATE_WINDOW / (b - a) for a, b in zip(stamps, stamps[1:]) if b > a
        ]
    finally:
        if log is not None:
            log.unwrap_all()
        session.close()

    result.setup_s = setup_s
    result.rss_mb = rss_mb
    result.info.update({
        "rss_at_fixed_work": rss_fixed,
        "setup_samples_s": setups,
        "link": "host loopback (127.0.0.1), not a real link",
        "clock": "real time (host wall clock)",
    })
    result.layer["loadgen.cpu_share"] = gen_cpu / drove["wall"]
    if name == "tcp_flood" and result.layer["loadgen.cpu_share"] >= 0.9:
        result.info["generator_bound"] = True
    if not alive:
        result.invalid.append("server process exited early")
    if traced:
        _traced_metrics(result, session, log, before, after, threads)
        if out_dir:
            write_span_file(
                os.path.join(out_dir, f"spans-{name}-loadgen.json"),
                "loadgen", log.rows(), log.dropped(),
            )
    return result


def _assess(name: str, session: Session, drove: dict,
            before: dict, after: dict) -> PhaseResult:
    """Correctness, validity and the fidelity numbers of one phase."""
    sent = drove["sent"]
    first = drove["first_seq"]
    arrivals = session.arrivals
    problems, order = checks.check_flow(
        (p for _, p in arrivals), session.expected,
        first_seq=first, count=sent,
    )
    failed = problems.count
    messages_ = list(problems.examples)
    due = drove["due"]
    sent_at = drove["sent_at"]
    link_delay = session.link_delay
    delay_err: list[tuple[float, float]] = []
    sched_lag: list[tuple[float, float]] = []
    ontime = 0
    for (t_arrive, packet), seq in zip(arrivals, order):
        if seq < 0:
            continue
        message = checks.check_stamps(
            packet.t_origin, packet.t_receipt, packet.t_forward,
            packet.t_delivered, link_delay, exact_delivery=False,
        )
        if message is not None or packet.t_delivered is None:
            failed += 1
            messages_.append(f"packet {seq}: {message or 'no t_delivered'}")
            continue
        t_due = due[seq - first]
        err = t_arrive - t_due - link_delay
        delay_err.append((t_due, err))
        sched_lag.append((t_due, packet.t_delivered - packet.t_forward))
        if err <= ONTIME_LIMIT:
            ontime += 1
    late = [s - d for s, d in zip(sent_at, due)]

    h0, h1 = before["health"], after["health"]
    e0, e1 = h0["engine"], h1["engine"]
    delivered = len(delay_err)
    if name == "tcp_flood":
        # Throughput counts what completed inside the timed window.
        end = drove["end"]
        deliveries = sum(1 for t, _ in arrivals if t <= end)
    else:
        deliveries = delivered
    for what, got, want in (
        ("server ingested", e1["ingested"] - e0["ingested"], sent),
        ("server forwarded", e1["forwarded"] - e0["forwarded"], sent),
        ("server dropped", e1["dropped"] - e0["dropped"], 0),
    ):
        if got != want:
            failed += abs(got - want)
            messages_.append(f"{what}: {got}, expected {want}")

    invalid: list[str] = []
    if not drove["drained"]:
        invalid.append("packets still in flight when the drain timed out")
    # Windowed like the latency percentiles.  A late generator does not
    # void the run - nothing end-to-end depends on it, and on a busy host
    # no retry would help - but it voids the run's latency rows:
    # compare.py refuses them above LATE_LIMIT_US.
    late_p99 = windowed_p99(list(zip(due, late)), drove["t0"]) * 1e6
    latency_valid = name != "tcp_paced" or late_p99 <= LATE_LIMIT_US
    over0, over1 = h0["overload"], h1["overload"]
    overload = overload_metrics(over0, over1)
    # A PRESSURED spell (lag EWMA over budget after a stall) batches
    # wake-ups but delivers everything; once the controller sheds or
    # saturates, the run measured shedding and not the pipeline.
    if (
        overload["core.overload.shed"]
        or over1["saturated_seconds"] != over0["saturated_seconds"]
        or over1["state"] == "saturated"
    ):
        invalid.append(f"overload controller shed load: {over1}")
    if h1["recent_failures"]:
        invalid.append(f"server thread failures: {h1['recent_failures'][:2]}")
    overflow = sum(c["overflow"] for c in h1["clients"].values())

    errs = [v for _, v in delay_err]
    lags = [v for _, v in sched_lag]
    t0 = drove["t0"]
    layer = {
        "delay_err_p50_us": percentile(errs, 0.5) * 1e6,
        "delay_err_p99_us": windowed_p99(delay_err, t0) * 1e6,
        "sched_lag_p50_us": percentile(lags, 0.5) * 1e6,
        "sched_lag_p99_us": windowed_p99(sched_lag, t0) * 1e6,
        "ontime_share": ontime / sent if sent else 0.0,
        "failed_share": failed / sent if sent else 0.0,
        "loadgen.late_p99_us": late_p99,
        "core.tcpserver.outbox_overflow": overflow,
        **overload,
    }
    info = {
        "sent": sent,
        "delivered": delivered,
        "samples": len(errs),
        "delay_err_p99_whole_phase_us": percentile(errs, 0.99) * 1e6,
        "sched_lag_p99_whole_phase_us": percentile(lags, 0.99) * 1e6,
        "server_user_us_per_delivery":
            (after["cpu_user_s"] - before["cpu_user_s"]) / max(sent, 1) * 1e6,
        "server_sys_us_per_delivery":
            (after["cpu_sys_s"] - before["cpu_sys_s"]) / max(sent, 1) * 1e6,
        "latency_rows_valid": latency_valid,
        "loadgen_late_p50_us": percentile(late, 0.5) * 1e6,
        "loadgen_late_p99_whole_phase_us": percentile(late, 0.99) * 1e6,
    }
    return PhaseResult(
        wall_s=drove["wall"],
        deliveries=deliveries,
        attempted=sent,
        failed=failed,
        cpu_s=drove["samples"][-1][1] - drove["samples"][0][1],
        rss_mb=0.0,
        setup_s=0.0,
        problems=messages_[:8] if failed else [],
        invalid=invalid,
        layer=layer,
        info=info,
    )


def _traced_metrics(result: PhaseResult, session: Session, log: SpanLog,
                    before: dict, after: dict, threads: int) -> None:
    """Fold the server's and the generator's layer numbers together."""
    layer = result.layer
    server_layer = after["layer"]
    mine = log.layers()

    def of(name: str, key: str) -> float:
        return stat(mine, name, key)

    # The codec runs on both sides of the socket: one mean over all calls.
    codec_calls = 0.0
    for side in ("encode", "decode"):
        s_calls, s_total = after["codec"][side]
        calls = s_calls + of(f"net.messages.{side}", "calls")
        total = s_total + of(f"net.messages.{side}", "total_s")
        layer[f"net.messages.{side}_us"] = per(total, calls) * 1e6
        codec_calls += calls
    layer["net.messages.calls"] = codec_calls
    layer.update(server_layer)
    layer.update({
        "core.client.transmit_us": of("core.client.transmit", "mean_us"),
        "core.clock.sync_residual_us": abs(
            session.a.last_sync.offset
            - (session.clock_a.epoch - session.server.epoch)
        ) * 1e6,
        "net.framing.recv_calls_per_pkt":
            per(session.recv_calls[0], len(session.arrivals)),
        "core.tcpserver.threads": threads,
        "core.tcpserver.ctx_switches_per_pkt":
            per(after["ctx_switches"] - before["ctx_switches"],
                result.attempted),
    })
    result.self_times = dict(after["self_times"])
    for name, aggregate in mine.items():
        result.self_times[f"loadgen:{name}"] = aggregate["self_s"]
    result.info["traced_wall_s"] = after["wall_s"]

"""Chaos tests: the overload-resilience plane under seeded saturation.

A live :class:`~repro.core.tcpserver.PoEmServer` is driven past its
real-time envelope by the seeded :class:`~repro.net.faults.OverloadInjector`
(burst traffic plus CPU-stealer threads).  The lag budget is set far
below anything a real machine can meet, so the controller *must*
saturate — the scenario is deterministic in outcome even though wall
clocks differ between hosts.  The tests assert the full arc the ISSUE
demands: the controller enters SATURATED, sheds hopelessly-late frames
with the recorded ``deadline-shed`` cause, returns to NOMINAL once the
storm passes, never deadlocks (thread leaks are caught by the autouse
conftest fixture; run with ``POEM_LOCKCHECK=1`` for lock-order cycles),
and ``poem analyze`` states the degraded interval afterwards.
"""

from __future__ import annotations

import threading
import time

from repro.analysis.report import analyze, render_text
from repro.core.client import PoEmClient
from repro.core.geometry import Vec2
from repro.core.ids import ChannelId
from repro.core.overload import OverloadState
from repro.core.packet import DropReason
from repro.core.tcpserver import PoEmServer
from repro.models.radio import RadioConfig
from repro.net.faults import OverloadInjector, OverloadSpec
from repro.stats.report import build_report

RADIOS = RadioConfig.single(1, 100.0)

#: A budget no real scheduler can hold (1 µs): any delivery lag reads as
#: saturation, making the chaos scenario's *outcome* machine-independent.
IMPOSSIBLE_BUDGET = 1e-6


def wait_for(predicate, timeout=10.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


def deadline_buckets(srv):
    """The live on-time / late / missed buckets and the ones
    ``build_report`` computes from the recording, side by side."""
    live = srv.health()["deadline"]
    report = build_report(srv.recorder)
    return (
        (live["on_time"], live["late"], live["missed"]),
        (report.deadline_on_time, report.deadline_late,
         report.deadline_missed),
    )


def start_pair(srv):
    """Two synced clients 10 m apart (well inside radio range)."""
    a = PoEmClient(srv.address, Vec2(0.0, 0.0), RADIOS, sync_rounds=2)
    b = PoEmClient(srv.address, Vec2(10.0, 0.0), RADIOS, sync_rounds=2)
    a.connect()
    b.connect()
    return a, b


class TestSaturationArc:
    """One storm, observed end to end: escalate, shed, recover, report."""

    def test_burst_saturates_sheds_and_recovers(self):
        srv = PoEmServer(
            seed=0,
            scan_poll=0.001,
            heartbeat_interval=0.1,
            schedule_capacity=4096,
            lag_budget=IMPOSSIBLE_BUDGET,
        )
        srv.start()
        a = b = None
        try:
            a, b = start_pair(srv)
            spec = OverloadSpec(
                bursts=4,
                burst_packets=150,
                burst_gap=0.001,
                cpu_stealers=2,
                steal_seconds=0.5,
            )
            with OverloadInjector(spec, seed=7) as inj:
                sent = inj.run_bursts(
                    lambda burst, i: a.transmit(
                        b.node_id, b"storm", channel=ChannelId(1)
                    )
                )
                assert sent == spec.bursts * spec.burst_packets

                # Entry: the storm must drive the controller to SATURATED
                # (the 1 µs budget makes any measured lag a violation).
                assert wait_for(
                    lambda: srv.overload.state == OverloadState.SATURATED
                ), f"never saturated: {srv.overload.snapshot()}"

                # Clients learn the state from the heartbeat piggyback.
                assert wait_for(lambda: a.server_overload is not None)

            # Shedding: frames already past the shed horizon were dropped
            # with the dedicated cause, and the books agree.
            assert wait_for(lambda: srv.overload.snapshot()["shed"] > 0)
            snap = srv.overload.snapshot()
            assert snap["transitions"] >= 1
            assert snap["degraded_seconds"] > 0.0

            # Exit: once the storm passes, the quiet scan loop decays the
            # EWMA and hysteresis walks the controller back to NOMINAL.
            assert wait_for(
                lambda: srv.overload.state == OverloadState.NOMINAL
            ), f"never recovered: {srv.overload.snapshot()}"
        finally:
            for c in (a, b):
                if c is not None:
                    c.close()
            srv.stop()

        # Post-mortem: the recording carries the whole story.  The run
        # left real-time territory, so analyze must say so.
        report = analyze(srv.recorder)
        fidelity = report.fidelity
        assert fidelity["verdict"] == "overloaded"
        # One rule: live health, `poem stats` and `poem analyze` agree,
        # on the verdict and on the buckets behind it — every delivery
        # left its record, saturated or not.
        live, recorded = deadline_buckets(srv)
        assert live == recorded
        assert srv.health()["deadline"]["verdict"] == "overloaded"
        assert build_report(srv.recorder).fidelity == "overloaded"
        assert fidelity["shed"] > 0
        assert fidelity["degraded_seconds"] > 0.0
        assert fidelity["intervals"], "no degraded interval reported"
        worst = {iv["worst"] for iv in fidelity["intervals"]}
        assert "saturated" in worst
        kinds = {a.kind for a in report.anomalies}
        assert "overload-degraded" in kinds
        # The rendered report states the envelope violation in prose.
        text = render_text(report)
        assert "OVERLOADED" in text
        assert "left real-time territory" in text

    def test_shed_drops_carry_the_dedicated_cause(self):
        """Every shed is a recorded drop with reason ``deadline-shed`` —
        the forensics trail distinguishes load-shedding from loss."""
        srv = PoEmServer(
            seed=0,
            scan_poll=0.001,
            schedule_capacity=4096,
            lag_budget=IMPOSSIBLE_BUDGET,
        )
        srv.start()
        a = b = None
        try:
            a, b = start_pair(srv)
            spec = OverloadSpec(bursts=3, burst_packets=100, burst_gap=0.0)
            with OverloadInjector(spec, seed=11) as inj:
                inj.run_bursts(
                    lambda burst, i: a.transmit(
                        b.node_id, b"x", channel=ChannelId(1)
                    )
                )
            assert wait_for(lambda: srv.overload.snapshot()["shed"] > 0)
            assert wait_for(
                lambda: srv.overload.state == OverloadState.NOMINAL
            )
        finally:
            for c in (a, b):
                if c is not None:
                    c.close()
            srv.stop()

        report = analyze(srv.recorder)
        shed = report.drops_by_reason.get(DropReason.DEADLINE_SHED, 0)
        assert shed > 0
        assert shed == report.fidelity["shed"]
        # Shed frames count as transport drops, never as medium physics.
        assert srv.engine.transport_dropped >= shed


class TestShutdownUnderStorm:
    """Stopping a saturated server must not deadlock or leak threads
    (the autouse ``no_thread_leaks`` fixture is the second assert)."""

    def test_stop_while_saturated(self):
        srv = PoEmServer(
            seed=0,
            scan_poll=0.001,
            schedule_capacity=4096,
            lag_budget=IMPOSSIBLE_BUDGET,
        )
        srv.start()
        a = b = None
        try:
            a, b = start_pair(srv)
            spec = OverloadSpec(
                bursts=2,
                burst_packets=200,
                burst_gap=0.0,
                cpu_stealers=1,
                steal_seconds=0.3,
            )
            with OverloadInjector(spec, seed=3) as inj:
                inj.run_bursts(
                    lambda burst, i: a.transmit(
                        b.node_id, b"x", channel=ChannelId(1)
                    )
                )
                wait_for(
                    lambda: srv.overload.severity > 0, timeout=5.0
                )
                # Stop mid-storm: stealers still running, schedule full.
                for c in (a, b):
                    c.close()
                a = b = None
                srv.stop()
        finally:
            for c in (a, b):
                if c is not None:
                    c.close()
            srv.stop()  # idempotent
        assert not srv.health()["running"]


def test_stall_recovers():
    """A host stall must not leave the server SATURATED for good.

    Default lag budget, one sender at about 2000 pps, and the
    loop stalled once for 1.2 s inside an ingest (a suspended process, a
    swapped-out page).  The frames that piled up in the socket meanwhile
    carry stamps that old, so the controller must saturate and shed; but
    the loop alternates read and harvest by construction, so the backlog
    drains at the loop's speed and NOMINAL is back within 3 s of the
    stall's end.  (The receiver threads this loop replaced paused 2 ms
    per frame while SATURATED, admitted 500 pps of the 2000 offered, and
    never came back.)  The run left real-time territory and the report
    has to say so — with the same on-time / late / missed counts live
    and from the recording.
    """
    srv = PoEmServer(seed=0)
    srv.start()
    a = b = None
    halt = threading.Event()

    def send_paced():
        due = time.monotonic()
        while not halt.is_set():
            a.transmit(b.node_id, b"paced", channel=ChannelId(1))
            due += 1.0 / 2000.0
            pause = due - time.monotonic()
            if pause > 0.0:
                time.sleep(pause)

    sender = threading.Thread(target=send_paced, name="stall-test-sender")
    real_ingest = srv.engine.ingest
    stall = {"armed": False, "end": None}

    def stalling_ingest(sender_id, packet, **kwargs):
        if stall["armed"]:
            stall["armed"] = False
            time.sleep(1.2)
            stall["end"] = time.monotonic()
        return real_ingest(sender_id, packet, **kwargs)

    srv.engine.ingest = stalling_ingest
    try:
        a, b = start_pair(srv)
        sender.start()
        assert wait_for(lambda: srv.engine.forwarded > 500)
        assert srv.overload.state == OverloadState.NOMINAL
        stall["armed"] = True
        assert wait_for(lambda: stall["end"] is not None)

        assert wait_for(
            lambda: srv.overload.snapshot()["saturated_seconds"] > 0.0,
            timeout=3.0,
        ), f"never saturated: {srv.overload.snapshot()}"
        assert wait_for(
            lambda: srv.overload.state == OverloadState.NOMINAL,
            timeout=max(stall["end"] + 3.0 - time.monotonic(), 0.0),
        ), f"still degraded 3 s after the stall: {srv.overload.snapshot()}"

        # Recovered for real: traffic flows and the state holds.
        forwarded = srv.engine.forwarded
        assert wait_for(lambda: srv.engine.forwarded > forwarded + 500)
        assert srv.overload.state == OverloadState.NOMINAL
    finally:
        halt.set()
        if sender.is_alive():
            sender.join(timeout=5.0)
        for c in (a, b):
            if c is not None:
                c.close()
        srv.stop()

    fidelity = analyze(srv.recorder).fidelity
    assert fidelity["verdict"] in ("degraded", "overloaded")
    assert fidelity["degraded_seconds"] > 0.0
    assert srv.health()["deadline"]["verdict"] == fidelity["verdict"]
    assert build_report(srv.recorder).fidelity == fidelity["verdict"]
    live, recorded = deadline_buckets(srv)
    assert live == recorded
    assert sum(live) == srv.engine.forwarded

"""``inproc_static_mesh`` and ``inproc_mobile_mesh``: the engine hot path
on the virtual clock, with and without scene writes beside the reads.

64 nodes on an 8×8 lattice (spacing 60, range 150, fan-out ≈ 14.8); every
node broadcasts a 64-byte beacon each 0.1 emulated second under the
paper's Table 3 loss model.  No sockets and no real-time waits: host time
per simulated delivery is the whole story, and every simulated statistic
must stay identical for a given seed.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Any, Optional

import checks
import inputs
import procstat
from harness import (
    SETUP_REPEATS, WARM_SECONDS, PhaseResult, check_pinned, repeated_setup,
    windows_from,
)
from layers import CoreProbe
from spans import SpanLog, write_span_file

from repro.core.geometry import Vec2
from repro.core.ids import BROADCAST_NODE, ChannelId
from repro.core.packet import DropReason
from repro.core.server import InProcessEmulator
from repro.models.link import LinkModel, PacketLossModel
from repro.models.mobility import Bounds, RandomWaypoint
from repro.models.radio import RadioConfig
from repro.obs.telemetry import Telemetry

COLS = ROWS = 8
AREA = 480.0
MARGIN = 30.0  # centres the 420-unit lattice in the 480-unit area
ROAM = 30.0  # half the side of the cell a mobile node roams
CHANNEL = ChannelId(1)
BEACON_BYTES = 64
BEACON_INTERVAL = 0.1
#: Paper Table 3.
LOSS = PacketLossModel(p0=0.1, p1=0.9, d0=50.0, radio_range=200.0)
LINK = LinkModel(loss=LOSS)
LINK_DELAY = BEACON_BYTES * 8 / 11e6  # constant 11 Mb/s, zero base delay

#: Fixed work done inside set-up: fills the neighbor tables and fan-out
#: caches, and is what ``expected.json`` pins for the default seed.
COLD_ROUNDS = 10
#: Rounds after which resident memory is read, so that ``peak_rss_mb``
#: compares equal work (the recorder keeps every record: a faster
#: program would otherwise look bigger).
RSS_ROUNDS = {"inproc_static_mesh": 150, "inproc_mobile_mesh": 50}

ALLOWED_DROPS = frozenset({DropReason.LOSS_MODEL})


class Mesh:
    """One emulator with its 64 beaconing hosts."""

    def __init__(self, seed: int, *, mobile: bool, telemetry: Optional[Telemetry]) -> None:
        kwargs: dict[str, Any] = {}
        if telemetry is not None:
            kwargs["telemetry"] = telemetry
        bounds = Bounds(0.0, 0.0, AREA, AREA)
        self.emu = InProcessEmulator(seed=seed, bounds=bounds, **kwargs)
        self.positions = [
            (x + MARGIN, y + MARGIN)
            for x, y in inputs.grid_positions(seed, COLS, ROWS)
        ]
        radios = RadioConfig.single(int(CHANNEL), inputs.RADIO_RANGE, LINK)
        self.hosts = [
            self.emu.add_node(Vec2(x, y), radios) for x, y in self.positions
        ]
        self.tails = [
            inputs.filler(seed, f"beacon-{i}", BEACON_BYTES - inputs.SEQ_BYTES)
            for i in range(len(self.hosts))
        ]
        self.mobile = mobile
        if mobile:
            # Each node roams a cell around its lattice home.  Roaming
            # the whole area would drift the nodes toward its centre, so
            # fan-out - and with it the work per round - would grow with
            # emulated time and differ from seed to seed; in cells the
            # density stays uniform while every tick still moves every
            # node and links at the edge of range keep flickering.
            for host, (x, y) in zip(self.hosts, self.positions):
                cell = Bounds(x - ROAM, y - ROAM, x + ROAM, y + ROAM)
                self.emu.scene.set_mobility(
                    host.node_id, RandomWaypoint(cell, 5.0, 15.0)
                )
            self.emu.enable_mobility_tick(0.05)
        self.rounds = 0
        self.log: Optional[SpanLog] = None

    def round(self) -> None:
        """Every node beacons once, then 0.1 emulated seconds pass."""
        seq = self.rounds
        tails = self.tails
        for i, host in enumerate(self.hosts):
            host.transmit(
                BROADCAST_NODE, inputs.payload(seq, tails[i]), channel=CHANNEL
            )
        self.emu.run_for(BEACON_INTERVAL)
        self.rounds = seq + 1

    def traced_round(self) -> None:
        with self.log.root("loadgen.round"):
            self.round()

    def counts(self) -> dict[str, int]:
        e = self.emu.engine
        return {
            "ingested": e.ingested,
            "forwarded": e.forwarded,
            "dropped": e.dropped,
        }


def _build(seed: int, mobile: bool, telemetry: Optional[Telemetry]) -> Mesh:
    mesh = Mesh(seed, mobile=mobile, telemetry=telemetry)
    for _ in range(COLD_ROUNDS):
        mesh.round()
    return mesh


def _teardown(mesh: Mesh) -> None:
    mesh.emu.shutdown()


def _instrument(mesh: Mesh) -> CoreProbe:
    log = mesh.log = SpanLog()
    emu = mesh.emu
    probe = CoreProbe(
        log, engine=emu.engine, neighbors=emu.neighbors, scene=emu.scene,
        recorder=emu.recorder, overload=emu.overload, clock=emu.clock,
    )
    for host in mesh.hosts:
        log.wrap(host, "transmit", "core.server.transmit")
    log.wrap(emu, "run_for", "core.server.run_for")
    return probe


def _verify(name: str, seed: int, mesh: Mesh, cold: dict[str, Any]) -> tuple[int, int, list[str]]:
    """Check everything the run produced; returns (attempted, failed,
    messages).  An attempt is one (frame, receiver) outcome."""
    emu = mesh.emu
    messages: list[str] = []
    records = emu.recorder.packets()
    node_index = {int(h.node_id): i for i, h in enumerate(mesh.hosts)}
    neighbors = None if mesh.mobile else inputs.neighbor_sets(mesh.positions)
    problems = checks.check_records(
        records, link_delay=LINK_DELAY, neighbors=neighbors,
        node_index=node_index, allowed_drops=ALLOWED_DROPS,
    )
    failed = problems.count
    messages += problems.examples
    counts = mesh.counts()
    frames = mesh.rounds * len(mesh.hosts)
    delivered = sum(1 for r in records if not r.dropped)
    received = sum(len(h.received) for h in mesh.hosts)
    for what, got, want in (
        ("ingested frames", counts["ingested"], frames),
        ("records", len(records), counts["forwarded"] + counts["dropped"]),
        ("delivered records", delivered, counts["forwarded"]),
        ("packets received by hosts", received, counts["forwarded"]),
    ):
        if got != want:
            failed += abs(got - want)
            messages.append(f"{what}: {got}, expected {want}")
    if neighbors is not None:
        want = mesh.rounds * sum(len(n) for n in neighbors)
        if len(records) != want:
            failed += abs(len(records) - want)
            messages.append(f"outcomes: {len(records)}, expected {want}")
    # Each host hears each neighbor's beacons once, in order, intact.
    for host in mesh.hosts:
        last: dict[int, int] = {}
        for packet in host.received:
            src = node_index[int(packet.source)]
            seq = inputs.payload_seq(packet.payload)
            if packet.payload != inputs.payload(seq, mesh.tails[src]):
                failed += 1
                messages.append(f"payload {src}/{seq} corrupted at {host.node_id}")
            elif last.get(src, -1) >= seq:
                failed += 1
                messages.append(f"flow {src}->{host.node_id} out of order at {seq}")
            last[src] = seq
    pinned = check_pinned(name, seed, cold)
    if pinned is not None:
        failed += 1
        messages.append(pinned)
    return len(records), failed, messages[:8]


def run(
    name: str,
    seed: int,
    seconds: float,
    *,
    traced: bool = False,
    telemetry: str = "default",
    setup_repeats: int = SETUP_REPEATS,
    out_dir: Optional[str] = None,
) -> PhaseResult:
    mobile = name == "inproc_mobile_mesh"

    def bundle() -> Optional[Telemetry]:
        if traced:
            return Telemetry(sample_every=1)
        if telemetry == "off":
            return Telemetry.disabled()
        return None  # the constructor's own default

    mesh, setup_s, setups = repeated_setup(
        lambda: _build(seed, mobile, bundle()), _teardown, setup_repeats
    )
    cold = dict(mesh.counts())
    cold["records_digest"] = checks.records_digest(mesh.emu.recorder.packets())
    probe = _instrument(mesh) if traced else None
    step = mesh.traced_round if traced else mesh.round

    gc.collect()
    warm_until = time.perf_counter() + WARM_SECONDS
    while time.perf_counter() < warm_until:
        step()

    pid = os.getpid()
    rss_rounds = mesh.rounds + RSS_ROUNDS[name]
    rss_mb = None
    before = mesh.counts()
    overload_before = mesh.emu.overload.snapshot()
    if probe is not None:
        probe.begin()
    engine = mesh.emu.engine
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    samples = [(t0, cpu0, engine.forwarded)]
    deadline = t0 + seconds
    while True:
        step()
        if mesh.rounds == rss_rounds:
            rss_mb = procstat.peak_rss_mb(pid)
        now = time.perf_counter()
        samples.append((now, time.process_time(), engine.forwarded))
        if now >= deadline:
            break
    wall = now - t0
    cpu_s = samples[-1][1] - cpu0
    after = mesh.counts()
    info: dict[str, Any] = {
        "rounds": mesh.rounds,
        "emulated_s": mesh.emu.clock.now(),
        "rss_at_fixed_work": rss_mb is not None,
        "cold_counts": {k: cold[k] for k in ("ingested", "forwarded", "dropped")},
        "records_digest": cold["records_digest"],
        "setup_samples_s": setups,
        "clock": "virtual (host time per emulated delivery)",
    }
    if rss_mb is None:
        rss_mb = procstat.peak_rss_mb(pid)

    layer: dict[str, float] = {}
    self_times: dict[str, float] = {}
    if probe is not None:
        layer = probe.metrics(wall, mesh.emu.telemetry)
        self_times = {k: v["self_s"] for k, v in mesh.log.layers().items()}
        if out_dir:
            write_span_file(
                os.path.join(out_dir, f"spans-{name}-emulator.json"),
                "emulator", mesh.log.rows(), mesh.log.dropped(),
            )
    attempted, failed, messages = _verify(name, seed, mesh, cold)
    rates, costs = windows_from(samples)  # one window per round
    over = mesh.emu.overload.snapshot()
    invalid = []
    if over["transitions"] != overload_before["transitions"] or over["shed"]:
        # On the virtual clock lag is 0 by construction: any transition
        # means the controller was fed something it should never see.
        invalid.append(f"overload controller left NOMINAL: {over}")
    _teardown(mesh)
    return PhaseResult(
        wall_s=wall,
        deliveries=after["forwarded"] - before["forwarded"],
        attempted=attempted,
        failed=failed,
        cpu_s=cpu_s,
        rss_mb=rss_mb,
        setup_s=setup_s,
        problems=messages if failed else [],
        invalid=invalid,
        layer=layer,
        info=info,
        self_times=self_times,
        rate_windows=rates,
        cost_windows=costs,
    )

"""``sharded_mesh``: the cluster data plane — parent encode, pipes, worker
pipeline, snapshot re-ship, record return.

``ShardedEmulator(n_workers=2)`` over 32 nodes on an 8×4 lattice,
lossless links.  Work comes in fixed **cycles** of 50 steps: in each
step every node broadcasts one beacon (origin stamps 10 ms apart) and one
node is moved within ±1 unit of its home, so one full scene snapshot is
re-shipped per 32 frames; a cycle ends with ``flush`` + ``collect``.  The
timed phase repeats cycles until its time is up.
"""

from __future__ import annotations

import multiprocessing
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
from layers import stage_metrics
from spans import SpanLog, stat, write_span_file
from summary import per

import repro.cluster.sharded as sharded_module
from repro.cluster import ipc
from repro.cluster.sharded import ShardedEmulator
from repro.core.geometry import Vec2
from repro.core.ids import BROADCAST_NODE, ChannelId
from repro.core.server import InProcessEmulator
from repro.models.radio import RadioConfig
from repro.net.messages import decode_packet_binary
from repro.obs.telemetry import Telemetry

COLS, ROWS = 8, 4
N_WORKERS = 2
CHANNEL = ChannelId(1)
BEACON_BYTES = 64
STEP = 0.01
CYCLE_STEPS = 50
#: The cold pass inside set-up is a quarter cycle: enough to fill every
#: cache and to compare against the in-process reference.
COLD_STEPS = 25
LINK_DELAY = BEACON_BYTES * 8 / 11e6
#: The barrier sits half a step after the cycle's last stamp: later than
#: every forward time (stamp + 46.5 µs), earlier than the next stamp, so
#: worker clocks never run ahead of a frame's origin.
FLUSH_MARGIN = STEP / 2
#: Cycles after which resident memory is read (equal work on every run).
RSS_CYCLES = 4
#: Encoded batches kept for the decode replay of a traced run.
REPLAY_BATCHES = 200


class Script:
    """The seeded script, playable on either deployment."""

    def __init__(self, seed: int) -> None:
        self.positions = inputs.grid_positions(seed, COLS, ROWS)
        n = len(self.positions)
        self.tails = [
            inputs.filler(seed, f"shard-{i}", BEACON_BYTES - inputs.SEQ_BYTES)
            for i in range(n)
        ]
        self.jiggle = inputs.jiggle(seed, 4096)
        self.neighbors = inputs.neighbor_sets(self.positions)
        self.fanout_sum = sum(len(s) for s in self.neighbors)

    def move(self, scene: Any, node_ids: list, step: int) -> None:
        k = step % len(node_ids)
        dx, dy = self.jiggle[step % len(self.jiggle)]
        x, y = self.positions[k]
        scene.move_node(node_ids[k], Vec2(x + dx, y + dy))


class Cluster:
    """One started ``ShardedEmulator`` with its hosts and its script."""

    def __init__(self, seed: int, telemetry: Optional[Telemetry]) -> None:
        self.script = Script(seed)
        kwargs: dict[str, Any] = {}
        if telemetry is not None:
            kwargs["telemetry"] = telemetry
        self.emu = ShardedEmulator(n_workers=N_WORKERS, seed=seed, **kwargs)
        radios = RadioConfig.single(int(CHANNEL), inputs.RADIO_RANGE)
        self.hosts = [
            self.emu.add_node(Vec2(x, y), radios)
            for x, y in self.script.positions
        ]
        self.node_ids = [h.node_id for h in self.hosts]
        self.emu.start()
        self.worker_pids = sorted(
            p.pid for p in multiprocessing.active_children()
        )
        self.step = 0
        self.log: Optional[SpanLog] = None
        self.split = {"transmit": 0.0, "flush": 0.0, "collect": 0.0}
        self.cold_counts: dict[str, Any] = {}

    def cycle(self, steps: int = CYCLE_STEPS) -> list:
        """One fixed unit of work; returns the records it produced."""
        script, emu, hosts = self.script, self.emu, self.hosts
        tails = script.tails
        t_a = time.perf_counter()
        step = self.step
        for _ in range(steps):
            t = STEP * (step + 1)
            for i, host in enumerate(hosts):
                host.transmit(
                    BROADCAST_NODE, inputs.payload(step, tails[i]),
                    channel=CHANNEL, t=t,
                )
            script.move(emu.scene, self.node_ids, step)
            step += 1
        self.step = step
        t_b = time.perf_counter()
        emu.flush(STEP * step + FLUSH_MARGIN)
        t_c = time.perf_counter()
        records = emu.collect()
        t_d = time.perf_counter()
        split = self.split
        split["transmit"] += t_b - t_a
        split["flush"] += t_c - t_b
        split["collect"] += t_d - t_c
        return records

    def traced_cycle(self) -> list:
        with self.log.root("loadgen.cycle"):
            return self.cycle()

    def cpu_seconds(self) -> tuple[float, list[float]]:
        """(parent CPU, per-worker CPU) so far."""
        return (
            time.process_time(),
            [procstat.cpu_seconds(pid) for pid in self.worker_pids],
        )

    def rss_mb(self) -> float:
        return sum(
            procstat.peak_rss_mb(pid)
            for pid in [os.getpid(), *self.worker_pids]
        )

    def workers_alive(self) -> bool:
        return all(procstat.alive(pid) for pid in self.worker_pids)

    def close(self) -> None:
        self.emu.stop()


def reference_cycle(seed: int) -> list:
    """The cold pass of the same script on an ``InProcessEmulator``."""
    script = Script(seed)
    emu = InProcessEmulator(seed=seed)
    radios = RadioConfig.single(int(CHANNEL), inputs.RADIO_RANGE)
    hosts = [emu.add_node(Vec2(x, y), radios) for x, y in script.positions]
    node_ids = [h.node_id for h in hosts]
    for step in range(COLD_STEPS):
        emu.run_until(STEP * (step + 1))
        for i, host in enumerate(hosts):
            host.transmit(
                BROADCAST_NODE, inputs.payload(step, script.tails[i]),
                channel=CHANNEL,
            )
        script.move(emu.scene, node_ids, step)
    emu.run_until(STEP * COLD_STEPS + FLUSH_MARGIN)
    records = emu.recorder.packets()
    emu.shutdown()
    return records


def _build(seed: int, telemetry: Optional[Telemetry]) -> tuple[Cluster, list]:
    cluster = Cluster(seed, telemetry)
    try:
        cold = cluster.cycle(COLD_STEPS)
        emu = cluster.emu
        cluster.cold_counts = {
            "ingested": emu.ingested,
            "forwarded": emu.forwarded,
            "dropped": emu.dropped,
            "records_digest": checks.records_digest(cold),
        }
    except Exception:
        cluster.close()
        raise
    return cluster, cold


def _instrument(cluster: Cluster) -> dict[str, Any]:
    """Wrap the parent-side cluster layers; worker-side functions cannot
    be wrapped from outside, so their decode cost is replayed later from
    the batches captured here."""
    log = cluster.log = SpanLog()
    emu = cluster.emu
    seen: dict[str, Any] = {
        "frames": 0, "bytes": 0, "batches": [], "snapshot_bytes": 0,
    }

    def saw_batch(args: tuple, data: bytes) -> None:
        seen["frames"] += len(args[0])
        seen["bytes"] += len(data)
        if len(seen["batches"]) < REPLAY_BATCHES:
            seen["batches"].append(data)

    def saw_message(args: tuple, data: bytes) -> None:
        if args[0].get("op") == "scene_snapshot":
            seen["snapshot_bytes"] = len(data)

    log.wrap(emu, "transmit", "cluster.sharded.transmit")
    log.wrap(emu, "flush", "cluster.sharded.flush")
    log.wrap(emu, "collect", "cluster.sharded.collect")
    log.wrap(ipc, "encode_packet_batch", "cluster.ipc.encode_batch",
             observe=saw_batch)
    log.wrap(ipc, "record_from_row", "cluster.ipc.record_from_row")
    log.wrap(emu.scene, "export_snapshot", "cluster.snapshot.export")
    log.wrap(emu.scene, "advance_time", "core.scene.advance")
    log.wrap(emu.scene, "move_node", "core.scene.move_node")
    log.wrap(emu.recorder, "record_many", "core.recording.record")
    # sharded.py binds these names at import, so its own namespace is
    # where the calls resolve.
    log.wrap(sharded_module, "snapshot_to_dict", "cluster.snapshot.to_dict")
    log.wrap(sharded_module, "encode_packet_binary", "net.messages.encode")
    log.wrap(sharded_module, "encode_message", "net.messages.encode_message",
             observe=saw_message)
    log.wrap(sharded_module, "decode_message", "net.messages.decode_message")
    return seen


def _replay_decode(batches: list[bytes]) -> float:
    """Decode the captured batches with the public decoders, as a worker
    would; returns µs per frame."""
    frames = 0
    t0 = time.perf_counter()
    for data in batches:
        entries, _t_sent = ipc.decode_packet_batch(data)
        for frame, _trace_id in entries:
            decode_packet_binary(frame)
        frames += len(entries)
    elapsed = time.perf_counter() - t0
    return elapsed / frames * 1e6 if frames else 0.0


def _check_cycles(script: Script, node_ids: list, cycles: list[list]) -> tuple[int, int, list[str]]:
    node_index = {int(n): i for i, n in enumerate(node_ids)}
    attempted = failed = 0
    messages: list[str] = []
    want = CYCLE_STEPS * script.fanout_sum
    for records in cycles:
        attempted += want
        problems = checks.check_records(
            records, link_delay=LINK_DELAY, neighbors=script.neighbors,
            node_index=node_index, allowed_drops=frozenset(),
        )
        failed += problems.count
        messages += problems.examples
        if len(records) != want:
            failed += abs(len(records) - want)
            messages.append(f"cycle produced {len(records)} records, expected {want}")
    return attempted, failed, messages


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
    def bundle() -> Optional[Telemetry]:
        if traced:
            return Telemetry(sample_every=1)
        if telemetry == "on":
            return Telemetry()
        return None  # the constructor's own default (telemetry off)

    (cluster, cold), setup_s, setups = repeated_setup(
        lambda: _build(seed, bundle()), lambda built: built[0].close(),
        setup_repeats,
    )
    try:
        seen = _instrument(cluster) if traced else None
        step = cluster.traced_cycle if traced else cluster.cycle

        warm_until = time.perf_counter() + WARM_SECONDS
        while time.perf_counter() < warm_until:
            step()

        emu = cluster.emu
        cycles: list[list] = []
        rss_mb = None
        counts0 = (emu.ingested, emu.forwarded, emu.dropped)
        version0 = emu.scene.version
        cluster.split = {k: 0.0 for k in cluster.split}
        if traced:
            cluster.log.reset_stats()
            for key in ("frames", "bytes"):
                seen[key] = 0
        cpu0 = cluster.cpu_seconds()
        t0 = time.perf_counter()
        samples = [(t0, cpu0[0] + sum(cpu0[1]), 0)]
        deadline = t0 + seconds
        while True:
            cycles.append(step())
            if len(cycles) == RSS_CYCLES:
                rss_mb = cluster.rss_mb()
            now = time.perf_counter()
            cpu1 = cluster.cpu_seconds()
            samples.append((
                now, cpu1[0] + sum(cpu1[1]),
                samples[-1][2] + len(cycles[-1]),
            ))
            if now >= deadline:
                break
        wall = now - t0
        alive = cluster.workers_alive()
        rss_fixed = rss_mb is not None
        if rss_mb is None:
            rss_mb = cluster.rss_mb()
        deliveries = emu.forwarded - counts0[1]
        worker_cpu = [b - a for a, b in zip(cpu0[1], cpu1[1])]
        cpu_s = (cpu1[0] - cpu0[0]) + sum(worker_cpu)

        layer: dict[str, float] = {}
        self_times: dict[str, float] = {}
        if traced:
            layer = _traced_metrics(
                cluster, seen, deliveries, worker_cpu, len(cycles),
                counts0, version0,
            )
            self_times = {
                k: v["self_s"] for k, v in cluster.log.layers().items()
            }
            if out_dir:
                write_span_file(
                    os.path.join(out_dir, f"spans-{name}-parent.json"),
                    "parent", cluster.log.rows(), cluster.log.dropped(),
                )
    finally:
        if cluster.log is not None:
            cluster.log.unwrap_all()
        cluster.close()

    # Correctness, after the processes are gone: the cold cycle against
    # an in-process run of the same script, every timed cycle against
    # the independently computed neighbor sets.
    attempted, failed, messages = _check_cycles(
        cluster.script, cluster.node_ids, cycles
    )
    reference = sorted(checks.record_tuple(r) for r in reference_cycle(seed))
    if sorted(checks.record_tuple(r) for r in cold) != reference:
        failed += 1
        messages.append(
            "cold cycle's records differ from the in-process reference"
        )
    pinned = check_pinned(name, seed, cluster.cold_counts)
    if pinned is not None:
        failed += 1
        messages.append(pinned)
    invalid = [] if alive else ["a shard worker exited early"]
    rates, costs = windows_from(samples)  # one window per cycle
    split = cluster.split
    return PhaseResult(
        wall_s=wall,
        deliveries=deliveries,
        attempted=attempted,
        failed=failed,
        cpu_s=cpu_s,
        rss_mb=rss_mb,
        setup_s=setup_s,
        problems=messages[:8] if failed else [],
        invalid=invalid,
        layer=layer,
        info={
            "cycles": len(cycles),
            "frames_per_cycle": CYCLE_STEPS * len(cluster.hosts),
            "split_s": {k: round(v, 4) for k, v in split.items()},
            "cold_counts": {
                k: cluster.cold_counts[k]
                for k in ("ingested", "forwarded", "dropped")
            },
            "records_digest": cluster.cold_counts["records_digest"],
            "rss_at_fixed_work": rss_fixed,
            "setup_samples_s": setups,
            "start_method": multiprocessing.get_start_method(),
            "clock": "virtual (host time per emulated delivery)",
        },
        self_times=self_times,
        rate_windows=rates,
        cost_windows=costs,
    )


def _traced_metrics(
    cluster: Cluster, seen: dict, deliveries: int,
    worker_cpu: list[float], n_cycles: int, counts0: tuple, version0: int,
) -> dict[str, float]:
    emu = cluster.emu
    stats = cluster.log.layers()

    def of(name: str, key: str) -> float:
        return stat(stats, name, key)

    ships = of("cluster.snapshot.export", "calls")
    batches = of("cluster.ipc.encode_batch", "calls")
    mean_cpu = per(sum(worker_cpu), len(worker_cpu))
    out = {
        "cluster.sharded.transmit_us": of("cluster.sharded.transmit", "mean_us"),
        "cluster.sharded.flush_s":
            per(of("cluster.sharded.flush", "total_s"), n_cycles),
        "cluster.sharded.collect_s":
            per(of("cluster.sharded.collect", "total_s"), n_cycles),
        "cluster.ipc.encode_us_per_frame":
            per(of("cluster.ipc.encode_batch", "total_s"), seen["frames"]) * 1e6,
        "cluster.ipc.decode_us_per_frame": _replay_decode(seen["batches"]),
        "cluster.ipc.bytes_per_frame": per(seen["bytes"], seen["frames"]),
        "cluster.ipc.frames_per_batch": per(seen["frames"], batches),
        "cluster.snapshot.export_us": per(
            of("cluster.snapshot.export", "total_s")
            + of("cluster.snapshot.to_dict", "total_s"),
            ships,
        ) * 1e6,
        "cluster.snapshot.bytes": seen["snapshot_bytes"],
        "cluster.snapshot.ships": ships,
        "cluster.worker.cpu_us_per_delivery":
            per(sum(worker_cpu), deliveries) * 1e6,
        "cluster.worker.cpu_balance": per(max(worker_cpu), mean_cpu),
        "core.engine.ingested": emu.ingested - counts0[0],
        "core.engine.forwarded": emu.forwarded - counts0[1],
        "core.engine.dropped": emu.dropped - counts0[2],
        "core.scene.advance_us": of("core.scene.advance", "mean_us"),
        "core.scene.version_bumps": emu.scene.version - version0,
        "core.recording.records": deliveries,
        "core.recording.record_us_per_record":
            per(of("core.recording.record", "total_s"), deliveries) * 1e6,
        "net.messages.encode_us": of("net.messages.encode", "mean_us"),
        "net.messages.calls": of("net.messages.encode", "calls"),
    }
    out.update(stage_metrics(emu.telemetry))
    return out

"""Scalability — node-count scaling and the future-work cluster (§3, §7).

Two claims are measured:

1. "Scalable in the number of emulated nodes": the per-packet pipeline
   cost and wall-clock throughput of the in-process emulator as the node
   count grows (broadcast beacons make offered load grow superlinearly —
   the honest stress).
2. The future-work cluster: the identical scripted broadcast load
   against :class:`~repro.cluster.sharded.ShardedEmulator` at 1..K
   worker **processes**.  The metric is plain wall-clock (transmit +
   barrier + collect) — actual OS parallelism, so speedup vs the
   1-worker row is the headline number (and meaningless on a 1-core
   box, which is why the bench gate is core-aware).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..cluster.sharded import ShardedEmulator
from ..core.geometry import Vec2
from ..core.ids import BROADCAST_NODE
from ..core.server import InProcessEmulator
from ..models.radio import RadioConfig

__all__ = [
    "NodeScaleRow",
    "ShardedScaleRow",
    "run_node_scaling",
    "run_sharded_scaling",
]


@dataclass(frozen=True)
class NodeScaleRow:
    """Emulator throughput at one node count."""

    n_nodes: int
    frames_ingested: int
    frames_forwarded: int
    emu_seconds: float
    wall_seconds: float

    @property
    def frames_per_wall_second(self) -> float:
        return self.frames_ingested / max(self.wall_seconds, 1e-12)


@dataclass(frozen=True)
class ShardedScaleRow:
    """Wall-clock of one sharded (multi-process) run at one worker count."""

    n_workers: int
    n_nodes: int
    frames_offered: int
    frames_forwarded: int
    wall_seconds: float
    speedup: float
    """Wall-clock of the first (reference) row over this row's —
    > 1 means this cluster size was faster."""


def _grid_nodes(emu, n: int, spacing: float = 60.0, radio_range: float = 150.0):
    """Place n nodes on a square grid with local connectivity."""
    side = int(np.ceil(np.sqrt(n)))
    hosts = []
    for i in range(n):
        hosts.append(
            emu.add_node(
                Vec2(spacing * (i % side), spacing * (i // side)),
                RadioConfig.single(1, radio_range),
            )
        )
    return hosts


def _broadcast_load(emu, hosts, duration: float, interval: float) -> None:
    """Every node broadcasts a beacon-sized frame every ``interval``."""

    def beat(host, t: float = 0.0) -> None:
        if t >= duration:
            return
        host.transmit(BROADCAST_NODE, b"scale-beacon", channel=1,
                      size_bits=512)
        emu.clock.call_after(interval, lambda: beat(host, t + interval))

    for host in hosts:
        beat(host)


def run_node_scaling(
    node_counts: tuple[int, ...] = (10, 25, 50, 100),
    *,
    duration: float = 5.0,
    interval: float = 0.5,
    seed: int = 4,
    profile_hz: Optional[float] = None,
) -> list[NodeScaleRow]:
    """Measure ingest throughput vs emulated-node count.

    ``profile_hz`` runs every emulator with the continuous sampling
    profiler on at that rate — the variant the profiler-overhead bench
    compares against the bare run.
    """
    rows = []
    for n in node_counts:
        emu = InProcessEmulator(seed=seed, profile_hz=profile_hz)
        try:
            hosts = _grid_nodes(emu, n)
            _broadcast_load(emu, hosts, duration, interval)
            t0 = time.perf_counter()
            emu.run_until(duration + 1.0)
            wall = time.perf_counter() - t0
            rows.append(
                NodeScaleRow(
                    n_nodes=n,
                    frames_ingested=emu.engine.ingested,
                    frames_forwarded=emu.engine.forwarded,
                    emu_seconds=duration,
                    wall_seconds=wall,
                )
            )
        finally:
            emu.shutdown()
    return rows


def run_sharded_scaling(
    worker_counts: tuple[int, ...] = (1, 4),
    *,
    n_nodes: int = 32,
    frames_per_node: int = 64,
    interval: float = 0.01,
    seed: int = 4,
    size_bits: int = 512,
    telemetry: bool = False,
    sample_every: Optional[int] = None,
) -> list[ShardedScaleRow]:
    """Broadcast-ingest wall-clock vs real (multi-process) cluster size.

    Every worker count replays the *identical* scripted load: each of
    ``n_nodes`` grid nodes broadcasts ``frames_per_node`` beacons at
    origin stamps ``interval`` apart.  Timed region: transmit + barrier
    flush + collect — worker spawn/teardown is excluded, since a
    long-lived cluster pays it once, not per scenario.

    ``telemetry=True`` runs every cluster with full cluster-wide
    observability on (per-worker registries exported and merged at
    barriers, cross-process trace sampling at ``sample_every``) — the
    variant the telemetry-overhead bench compares against the bare run.
    """
    from ..obs.telemetry import Telemetry

    rows: list[ShardedScaleRow] = []
    base_wall: float | None = None
    horizon = interval * (frames_per_node + 1) + 2.0
    for k in worker_counts:
        bundle = (
            Telemetry(
                sample_every=sample_every or Telemetry.DEFAULT_SAMPLE_EVERY
            )
            if telemetry
            else None
        )
        with ShardedEmulator(n_workers=k, seed=seed, telemetry=bundle) as emu:
            hosts = _grid_nodes(emu, n_nodes)
            t0 = time.perf_counter()
            for f in range(frames_per_node):
                t = interval * (f + 1)
                for host in hosts:
                    host.transmit(
                        BROADCAST_NODE,
                        b"scale-beacon",
                        channel=1,
                        size_bits=size_bits,
                        t=t,
                    )
            emu.flush(horizon)
            emu.collect()
            wall = time.perf_counter() - t0
            forwarded = emu.forwarded
        if base_wall is None:
            base_wall = wall
        rows.append(
            ShardedScaleRow(
                n_workers=k,
                n_nodes=n_nodes,
                frames_offered=n_nodes * frames_per_node,
                frames_forwarded=forwarded,
                wall_seconds=wall,
                speedup=base_wall / max(wall, 1e-12),
            )
        )
    return rows


def format_node_rows(rows: list[NodeScaleRow]) -> str:
    lines = [
        f"{'nodes':>6} {'ingested':>9} {'forwarded':>10} {'wall (s)':>9} "
        f"{'frames/s':>10}",
        "-" * 50,
    ]
    for r in rows:
        lines.append(
            f"{r.n_nodes:>6} {r.frames_ingested:>9} {r.frames_forwarded:>10} "
            f"{r.wall_seconds:>9.3f} {r.frames_per_wall_second:>10.0f}"
        )
    return "\n".join(lines)


def format_sharded_rows(rows: list[ShardedScaleRow]) -> str:
    lines = [
        f"{'workers':>8} {'offered':>8} {'forwarded':>10} {'wall (s)':>9} "
        f"{'speedup':>8}",
        "-" * 48,
    ]
    for r in rows:
        lines.append(
            f"{r.n_workers:>8} {r.frames_offered:>8} {r.frames_forwarded:>10} "
            f"{r.wall_seconds:>9.3f} {r.speedup:>8.2f}"
        )
    return "\n".join(lines)

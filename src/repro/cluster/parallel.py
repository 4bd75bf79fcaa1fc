"""Parallelized emulation-server cluster — the paper's future work, built.

"Our future work is to expand the one server to a parallelized cluster to
conquer the performance bottleneck so as to support fine-granularity
performance evaluations driven by scenario scripts." (§7)

:class:`ParallelEmulator` shards VMNs across ``n_workers`` worker engines
by sender id.  All workers share the one consistent scene and the one
channel-indexed neighbor table (scene consistency is the centralized
architecture's whole point — sharding must not break it); what is
parallelized is the per-packet pipeline work: reception, neighbor lookup,
drop decision, schedule insertion.

Because this is a discrete-event model (and CPython would serialize the
compute anyway), each worker carries an explicit **service-rate capacity**
(packets/second of pipeline work).  A packet transmitted by node ``v``
queues at ``v``'s shard worker (deterministic registration-order
placement, :class:`~repro.cluster.shard.ShardMap`); its pipeline runs
when that worker is free.  With one worker this degenerates to the single-server bottleneck
(§2.1); with ``n`` workers the aggregate capacity scales ≈ linearly until
a hot sender saturates its shard — exactly the scaling story the
scalability bench (``benchmarks/test_scalability.py``) measures:
per-packet processing lag vs. offered load vs. cluster size.

The interface matches :class:`~repro.core.server.InProcessEmulator`, so
protocols and workloads run on a cluster unchanged.
"""

from __future__ import annotations

from typing import Optional

from ..core.geometry import Vec2
from ..core.ids import NodeId
from ..core.packet import Packet
from ..core.recording import Recorder
from ..core.server import InProcessEmulator, VirtualNodeHost
from ..errors import ClusterError
from ..models.mobility import Bounds
from ..models.radio import RadioConfig
from .shard import ShardMap

__all__ = ["ParallelEmulator", "WorkerStats"]


class WorkerStats:
    """Load accounting for one cluster worker."""

    __slots__ = ("processed", "busy_time", "max_queue_lag")

    def __init__(self) -> None:
        self.processed = 0
        self.busy_time = 0.0
        self.max_queue_lag = 0.0


class ParallelEmulator(InProcessEmulator):
    """A cluster of pipeline workers behind one consistent scene."""

    def __init__(
        self,
        *,
        n_workers: int = 4,
        worker_service_rate: float = 10_000.0,
        seed: Optional[int] = 0,
        bounds: Optional[Bounds] = None,
        recorder: Optional[Recorder] = None,
        schedule_capacity: Optional[int] = None,
        use_client_stamps: bool = True,
    ) -> None:
        if n_workers < 1:
            raise ClusterError(f"need at least one worker, got {n_workers}")
        if worker_service_rate <= 0:
            raise ClusterError(
                f"service rate must be positive: {worker_service_rate}"
            )
        super().__init__(
            seed=seed,
            bounds=bounds,
            recorder=recorder,
            schedule_capacity=schedule_capacity,
            use_client_stamps=use_client_stamps,
        )
        self.n_workers = n_workers
        self.service_time = 1.0 / worker_service_rate
        self.shards = ShardMap(n_workers)
        # Per-worker serial occupancy (fluid model of a busy CPU).
        self._busy_until = [0.0] * n_workers
        self.worker_stats = [WorkerStats() for _ in range(n_workers)]
        # Workers share the scene/neighbors/recorder through self.engine;
        # sharding only spreads *when* pipeline work runs.

    def add_node(self, position: Vec2, radios: RadioConfig, **kwargs) -> VirtualNodeHost:
        host = super().add_node(position, radios, **kwargs)
        self.shards.place(host.node_id)
        return host

    def remove_node(self, node_id: NodeId) -> None:
        self.shards.release(node_id)
        super().remove_node(node_id)

    def worker_for(self, node_id: int) -> int:
        """Stable shard assignment: sender id → worker index.

        Registration-order round-robin via the explicit
        :class:`~repro.cluster.shard.ShardMap` — unlike the old
        ``hash(v) mod n`` this is reproducible across interpreter runs
        regardless of ``PYTHONHASHSEED``, and it is the *same* map the
        multi-process :class:`~repro.cluster.sharded.ShardedEmulator`
        uses, so the modeled and real clusters agree on placement.
        """
        return self.shards.shard_of(NodeId(int(node_id)))

    def _client_transmit(self, host: VirtualNodeHost, packet: Packet) -> None:
        """Queue the frame at its shard's worker, then run the pipeline."""
        uplink = host.uplink.sample(host._rng)
        self.clock.call_after(uplink, lambda: self._worker_enqueue(host, packet))

    def _worker_enqueue(self, host: VirtualNodeHost, packet: Packet) -> None:
        w = self.worker_for(host.node_id)
        now = self.clock.now()
        start = max(now, self._busy_until[w])
        done = start + self.service_time
        self._busy_until[w] = done
        stats = self.worker_stats[w]
        stats.processed += 1
        stats.busy_time += self.service_time
        stats.max_queue_lag = max(stats.max_queue_lag, start - now)

        def process() -> None:
            self.scene.advance_time(self.clock.now())
            self.engine.arm_flush(self.engine.ingest(host.node_id, packet))

        self.clock.call_at(done, process)

    # -- observability ---------------------------------------------------------------

    def load_report(self) -> dict:
        """Cluster load summary (per-worker + aggregate)."""
        total = sum(s.processed for s in self.worker_stats)
        return {
            "n_workers": self.n_workers,
            "processed_total": total,
            "per_worker": [
                {
                    "processed": s.processed,
                    "busy_time": s.busy_time,
                    "max_queue_lag": s.max_queue_lag,
                }
                for s in self.worker_stats
            ],
            "max_queue_lag": max(
                (s.max_queue_lag for s in self.worker_stats), default=0.0
            ),
            "imbalance": (
                max(s.processed for s in self.worker_stats)
                / max(total / self.n_workers, 1)
                if total
                else 0.0
            ),
        }

"""Parallelized server cluster (the paper's future work, implemented).

:class:`ShardedEmulator` runs ``n_workers`` OS processes, each with a
private forwarding engine over a replicated scene, fed over
binary-codec pipes; :class:`~repro.cluster.shard.ShardMap` is the
deterministic sender → shard placement.
"""

from .shard import ShardMap
from .sharded import ShardedEmulator, ShardedHost
from .worker import WorkerConfig, worker_main

__all__ = [
    "ShardMap",
    "ShardedEmulator",
    "ShardedHost",
    "WorkerConfig",
    "worker_main",
]

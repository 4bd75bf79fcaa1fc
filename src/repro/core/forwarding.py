"""The one forwarding core every deployment is a shell around.

DESIGN.md §2: the deployments differ "only in clocks and transports".
:class:`ForwardingCore` is the part that does not differ — scene →
recorder → neighbor tables → engine (which owns the overload
controller), wired once on whatever clock the shell hands it, plus the
evidence a run leaves behind (the ``run-summary`` record and the core
sections of ``health()``).
:class:`~repro.core.server.InProcessEmulator` (virtual clock, virtual
hosts), :class:`~repro.core.tcpserver.PoEmServer` (real-time clock,
sockets) and the sharded cluster's shard worker
(:class:`~repro.cluster.worker._WorkerState`: a stamp-driven virtual
clock, a pipe, a scene replica swapped in by :meth:`replace_scene`)
subclass it and add their transport, nothing else.  The sharded parent
owns no engine; it shares the module-level helpers
(:func:`make_profiler` / :func:`release_profiler`,
:func:`record_run_summary`, :func:`virtual_clients`).
"""

from __future__ import annotations

from time import perf_counter as _perf
from typing import TYPE_CHECKING, Any, Iterable, Optional

import numpy as np

from ..models.mobility import Bounds
from ..obs.telemetry import Telemetry
from ..obs.tracing import Trace
from .clock import RealTimeClock, VirtualClock
from .engine import ForwardingEngine
from .ids import NodeId
from .neighbor import ChannelIndexedNeighborTables
from .overload import fidelity_verdict
from .packet import Packet
from .recording import MemoryRecorder, Recorder
from .scene import Scene, SceneEvent

if TYPE_CHECKING:
    from ..obs.profiler import SamplingProfiler

__all__ = [
    "ForwardingCore",
    "make_profiler",
    "release_profiler",
    "record_run_summary",
    "virtual_clients",
]


def make_profiler(
    hz: Optional[float], role: str, overload: Any = None
) -> Optional[SamplingProfiler]:
    """The optional continuous sampler of one process (None when ``hz``
    is unset), installed as the process default unless one already is.
    Not started: each deployment starts it where its run starts.  Given
    an overload controller it pauses whenever that leaves NOMINAL."""
    if not hz:
        return None
    # Imported here: an unprofiled process never loads the sampler.
    from ..obs import profiler as profiler_mod

    profiler = profiler_mod.SamplingProfiler(
        hz=float(hz), role=role, overload=overload
    )
    if profiler_mod.get_default() is None:
        profiler_mod.set_default(profiler)
    return profiler


def release_profiler(profiler: Optional[SamplingProfiler]) -> None:
    """Stop a :func:`make_profiler` sampler (its table stays readable)
    and clear the process default when it was ours.  None-safe."""
    if profiler is None:
        return
    from ..obs import profiler as profiler_mod

    profiler.stop()
    if profiler_mod.get_default() is profiler:
        profiler_mod.set_default(None)


def record_run_summary(
    recorder: Recorder,
    t: float,
    totals: dict[str, int],
    profiler: Optional[SamplingProfiler] = None,
    **sections: Any,
) -> None:
    """Record the terminal ``run-summary`` scene event of a run.

    Offline analysis should not have to infer the run end from the last
    packet: the summary pins stop time, pipeline ``totals`` and the
    sync-sample count, plus whatever ``sections`` the deployment has
    (``overload``/``deadline`` where an engine is local; ``cluster``
    and the workers' summed ``deadline`` on the sharded parent).  A profiled run records its ``profile``
    event first, so ``poem profile <db>`` reads it back.  Both are about
    the *run*, not a node — ``node`` is the sentinel ``-1`` — and are
    recorded directly, so scene listeners and replay are not involved.
    """
    if profiler is not None:
        recorder.record_scene(
            SceneEvent(
                time=t, kind="profile", node=NodeId(-1),
                details=profiler.snapshot(),
            )
        )
    recorder.record_scene(
        SceneEvent(
            time=t,
            kind="run-summary",
            node=NodeId(-1),
            details={
                **totals,
                "sync_samples": len(recorder.sync_samples()),
                **sections,
            },
        )
    )


def virtual_clients(
    scene: Scene, hosts: Iterable[NodeId], now: float
) -> dict[str, Any]:
    """The ``clients`` and ``quarantined`` sections of ``health()`` for
    a shell whose clients are virtual hosts (in-process, sharded): each
    host still in the scene was seen ``now``, has no outbox, and is
    stale exactly while quarantined."""
    return {
        "clients": {
            int(nid): {
                "label": scene.label(nid),
                "last_seen": now,
                "stale": scene.is_quarantined(nid),
                "overflow": 0,
                "outbox_depth": 0,
            }
            for nid in hosts
            if nid in scene
        },
        "quarantined": {int(n): None for n in scene.quarantined_nodes()},
    }


class ForwardingCore:
    """Scene, recorder, neighbor tables and engine (with its overload
    controller) on one clock — what :class:`InProcessEmulator`,
    :class:`PoEmServer` and the shard worker have in common."""

    def __init__(
        self,
        # The two clocks shells hand in, not EmulationClock: `lint --deep`
        # resolves calls by annotation, and the abstract type would pull
        # the client-side SynchronizedClock's lock into the server's graph.
        clock: RealTimeClock | VirtualClock,
        *,
        role: str,
        # A list seeds a child stream (the shard workers' [seed, index]).
        seed: int | list[int] | None,
        bounds: Optional[Bounds],
        recorder: Optional[Recorder],
        schedule_capacity: Optional[int],
        telemetry: Optional[Telemetry],
        lag_budget: float,
        profile_hz: Optional[float],
        mac=None,
        energy=None,
    ) -> None:
        self.clock = clock
        self.scene = Scene(bounds=bounds, seed=seed)
        self.scene.bind_time_source(clock.now)
        self.recorder = recorder if recorder is not None else MemoryRecorder()
        self.recorder.attach_to_scene(self.scene)
        self.neighbors = ChannelIndexedNeighborTables(self.scene)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        # The transport owns the sampling decision (its spans include
        # Step 1); stop the engine from double-sampling.
        self._tracer = self.telemetry.tracer
        if self._tracer is not None:
            self._tracer.delegated = True
        self.engine = ForwardingEngine(
            self.scene,
            self.neighbors,
            clock,
            self.recorder,
            rng=np.random.default_rng(seed),
            schedule_capacity=schedule_capacity,
            mac=mac,
            energy=energy,
            telemetry=self.telemetry,
            lag_budget=lag_budget,
        )
        self.overload = self.engine.overload
        # Continuous profiling shares the overload controller, so it is
        # shed the moment the core leaves NOMINAL — before any fidelity.
        self.profiler = make_profiler(profile_hz, role, self.overload)

    def replace_scene(self, scene: Scene) -> None:
        """Swap in a new scene (a shard worker's fresh replica) under the
        same engine: bound to this core's clock, with rebuilt neighbor
        tables.  Counters, deadline buckets, the schedule and the RNG
        position carry on.  The recorder is not attached: the replica's
        scene events are the parent's to record."""
        scene.bind_time_source(self.clock.now)
        self.scene = self.engine.scene = scene
        self.neighbors = self.engine.neighbors = (
            ChannelIndexedNeighborTables(scene)
        )

    def _virtual_ingest(
        self, source: NodeId, packet: Packet, trace: Optional[Trace] = None
    ) -> None:
        """Steps 1–5 of one frame on a virtual clock: scene mobility up
        to now, ingest, then one wake-up per new forward instant
        (:meth:`ForwardingEngine.arm_flush`).  The shells that run their
        clock virtually (in-process hosts, shard workers) enter the
        pipeline here and nowhere else."""
        # Positions must reflect mobility up to now before the neighbor
        # lookup and loss draws: the server's view is current.
        self.scene.advance_time(self.clock.now())
        engine = self.engine
        engine.arm_flush(engine.ingest(source, packet, trace=trace))

    def _sampled_receive(self, source: NodeId, packet: Packet, t0: float):
        """Step 1 of a pipeline trace, for a shell whose tracer is on:
        the 1-in-N sampling decision and, when taken, the ``receive``
        stage since ``t0``.  Returns the trace to hand ``engine.ingest``
        (None for an unsampled packet, and for every packet while the
        overload controller sheds tracing)."""
        if not self.overload.allow_tracing:
            return None
        tr = self._tracer.maybe_start()
        if tr is not None:
            tr.bind(source, packet)
            tr.stage("receive", _perf() - t0)
        return tr

    def _engine_totals(self) -> dict[str, int]:
        engine = self.engine
        return {
            "ingested": engine.ingested,
            "forwarded": engine.forwarded,
            "dropped": engine.dropped,
            "transport_dropped": engine.transport_dropped,
        }

    def _fidelity_sections(self) -> dict[str, Any]:
        """``overload`` and ``deadline``: the controller snapshot and the
        delivery buckets with the live fidelity verdict."""
        overload = self.overload.snapshot()
        d = self.engine.deadlines
        verdict = fidelity_verdict(
            d.late, d.missed, overload["shed"], overload["worst"]
        )
        return {
            "overload": overload,
            "deadline": {**d.as_dict(), "verdict": verdict},
        }

    def _core_health(self) -> dict[str, Any]:
        """The sections of ``health()`` that describe the core; each
        shell puts its transport's sections in front."""
        return {
            "engine": self._engine_totals(),
            "schedule_depth": len(self.engine.schedule),
            **self._fidelity_sections(),
        }

    def record_run_summary(self) -> None:
        """Pin the end of the run into the recording
        (:func:`record_run_summary`)."""
        record_run_summary(
            self.recorder,
            self.clock.now(),
            self._engine_totals(),
            self.profiler,
            **self._fidelity_sections(),
        )

"""JEmu-style centralized emulator baseline (§2.1, Fig 2).

JEmu [7] is the paper's exemplar of a *purely* centralized emulator: all
traffic is directed through the central server, which also does all the
time-stamping.  Because the server has one incoming interface, packets
that several clients generated *simultaneously* are received — and
therefore stamped — serially: "in the view of the server these packets
are sent at different time due to the serial reception and subsequent
processing" (Fig 2).  The recording is consequently not real-time and
"may result in an inaccurate evaluation".

:class:`JEmuEmulator` reproduces that architecture on top of the shared
pipeline: it reuses the scene/neighbor/engine machinery but

* anchors every forwarding decision at the **server's serial receipt
  time** (``use_client_stamps=False``), and
* funnels all arrivals through a single-server queue with a fixed
  per-packet ``service_time`` — the serialized NIC + processing of Fig 2.

The client-side ``t_origin`` stamps are still carried (they are what the
Fig 2 bench compares against) but the emulator itself never uses them —
that is precisely PoEm's improvement.

Feature limits of the original, enforced honestly: one radio per node
(no multi-radio emulation) and no scene recording (no post-emulation
replay) — Table 1's ✗ columns.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..core.geometry import Vec2
from ..core.packet import Packet
from ..core.recording import Recorder
from ..core.scene import SceneEvent
from ..core.server import InProcessEmulator, VirtualNodeHost
from ..errors import ConfigurationError
from ..models.mobility import Bounds
from ..models.radio import RadioConfig

__all__ = ["JEmuEmulator"]


class _DropSceneEvents(Recorder):
    """Wrapper hiding scene events from the inner recorder.

    JEmu has no post-emulation replay: it logs traffic only.  Packet rows
    pass through; scene rows vanish, so building a
    :class:`~repro.core.replay.ReplayEngine` over a JEmu recording fails
    for want of scene data — the honest way to flunk the Table 1 probe.
    """

    def __init__(self, inner: Recorder) -> None:
        self._inner = inner

    def record_packet(self, row) -> int:
        return self._inner.record_packet(row)

    def record_many(self, rows) -> int:
        return self._inner.record_many(rows)

    def __len__(self) -> int:
        return len(self._inner)

    def record_scene(self, event: SceneEvent) -> None:
        pass  # not recorded — no replay support

    def packets(self):
        return self._inner.packets()

    def scene_events(self):
        return []

    def close(self) -> None:
        self._inner.close()


class JEmuEmulator(InProcessEmulator):
    """Centralized emulator with serial server-side time-stamping."""

    #: Table 1 row (architectural capabilities, probed by the bench too).
    FEATURES = {
        "realtime_scene_construction": True,
        "realtime_traffic_recording": False,
        "multi_radio": False,
        "replay": False,
    }

    def __init__(
        self,
        *,
        seed: Optional[int] = 0,
        bounds: Optional[Bounds] = None,
        recorder: Optional[Recorder] = None,
        service_time: float = 0.001,
        schedule_capacity: Optional[int] = None,
    ) -> None:
        if service_time <= 0:
            raise ConfigurationError(
                f"service_time must be positive: {service_time}"
            )
        if recorder is not None:
            recorder = _DropSceneEvents(recorder)
        super().__init__(
            seed=seed,
            bounds=bounds,
            recorder=recorder,
            schedule_capacity=schedule_capacity,
        )
        self.engine.use_client_stamps = False  # the defining JEmu property
        self.service_time = service_time
        self._inbox: deque[tuple[VirtualNodeHost, Packet]] = deque()
        self._busy_until = 0.0
        # If no recorder was passed, InProcessEmulator made a MemoryRecorder
        # and attached it to the scene; detach scene recording to stay honest.
        if not isinstance(self.recorder, _DropSceneEvents):
            self.scene.remove_listener(self.recorder.record_scene)
            inner = self.recorder
            self.recorder = _DropSceneEvents(inner)
            self.engine.recorder = self.recorder

    # -- feature limits -----------------------------------------------------------

    def add_node(self, position: Vec2, radios: RadioConfig, **kwargs):
        if len(radios.radios) > 1:
            raise ConfigurationError(
                "JEmu baseline does not emulate multi-radio nodes"
            )
        return super().add_node(position, radios, **kwargs)

    # -- serialized reception -------------------------------------------------------

    def _client_transmit(self, host: VirtualNodeHost, packet: Packet) -> None:
        """Queue the frame behind the single serial receiver."""
        uplink = host.uplink.sample(host._rng)
        self.clock.call_after(uplink, lambda: self._enqueue(host, packet))

    def _enqueue(self, host: VirtualNodeHost, packet: Packet) -> None:
        now = self.clock.now()
        start = max(now, self._busy_until)
        done = start + self.service_time
        self._busy_until = done
        self._inbox.append((host, packet))
        self.clock.call_at(done, self._process_one)

    def _process_one(self) -> None:
        if not self._inbox:
            return
        host, packet = self._inbox.popleft()
        # The server's view: the packet "arrived" now, after serial
        # reception — this becomes t_receipt and anchors forwarding.
        self.scene.advance_time(self.clock.now())
        self.engine.arm_flush(self.engine.ingest(host.node_id, packet))

"""The forwarding engine: §3.2 Steps 1–7, clock- and transport-agnostic.

For each incoming packet the PoEm server:

1. receives the packet from an emulation client;
2. searches the **channel-ID indexed neighbor table** for the destinations
   the packet should be forwarded to;
3. decides whether to drop it, and — *from the receipt time that is
   stamped by the clients* (parallel time-stamping!) — computes
   ``t_forward = t_receipt + delay + packet_size / bandwidth``;
4. lists the packet into the schedule;
5. a scanning thread watches the schedule and, once the emulation clock
   meets the forward time,
6. a sending thread sends the packet out its connection;
7. recording threads log every packet and every scene change.

:class:`ForwardingEngine` implements Steps 2–4 (:meth:`ingest`) and the
delivery half of 5–7 (:meth:`flush_due`), leaving *when* ``flush_due`` runs
to the owner: the real-time server calls it from a scanning thread against
the wall clock; the virtual-clock deployments arm it with :meth:`arm_flush`,
one clock callback per forward instant.
Both therefore execute the identical forwarding logic — the property that
makes deterministic tests meaningful for the real deployment.

Medium semantics: radio transmission is broadcast at the physical layer,
so a frame transmitted by ``sender`` on channel ``k`` reaches **every**
member of ``NT(sender, k)``, each with an independent loss-model draw.  A
unicast frame (MAC destination set) is delivered only to that destination;
a broadcast frame is delivered to all neighbors.  Either way a frame whose
destination is not currently a neighbor is dropped — exactly how Table 2's
scene operations cut routes.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

import numpy as np

from ..models.energy import EnergyTracker
from ..models.mac import IdealMac, MacModel
from ..obs.telemetry import Telemetry
from ..obs.tracing import Trace
from .clock import EmulationClock
from .ids import NodeId
from .neighbor import NeighborScheme
from .overload import DEFAULT_LAG_BUDGET, DeadlineAccounting, OverloadController
from .packet import DropReason, Packet, PacketRow, packet_row
from .recording import MemoryRecorder, Recorder
from .scene import Scene
from .scheduler import ForwardSchedule, ScheduledPacket, take_pairs

__all__ = ["ForwardingEngine", "DeliverFn"]

_perf = time.perf_counter

DeliverFn = Callable[[NodeId, Packet], None]
"""Callback delivering a packet to a destination VMN's client."""


class ForwardingEngine:
    """Steps 2–7 of the PoEm pipeline over a scene + neighbor tables."""

    def __init__(
        self,
        scene: Scene,
        neighbors: NeighborScheme,
        clock: EmulationClock,
        recorder: Optional[Recorder] = None,
        *,
        rng: Optional[np.random.Generator] = None,
        schedule_capacity: Optional[int] = None,
        use_client_stamps: bool = True,
        mac: Optional[MacModel] = None,
        energy: Optional[EnergyTracker] = None,
        telemetry: Optional[Telemetry] = None,
        lag_budget: float = DEFAULT_LAG_BUDGET,
    ) -> None:
        self.scene = scene
        self.neighbors = neighbors
        self.clock = clock
        self.recorder = recorder if recorder is not None else MemoryRecorder()
        self.schedule = ForwardSchedule(schedule_capacity)
        self.deliver: Optional[DeliverFn] = None
        self.use_client_stamps = use_client_stamps
        self.mac = mac if mac is not None else IdealMac()
        # Delivery-time collision hooks, None where the MAC's class keeps
        # MacModel's always-False default.
        self._mac_hooks = [
            None if getattr(type(self.mac), h) is getattr(MacModel, h)
            else getattr(self.mac, h) for h in ("was_collided", "receiver_corrupted")
        ]
        self.energy = energy
        # Overload-resilience plane: the controller and the deadline
        # buckets judge against the one lag budget.
        self.deadlines = DeadlineAccounting(lag_budget)
        self.overload = OverloadController(
            lag_budget, capacity=schedule_capacity, time_fn=clock.now
        )
        self._rng = rng if rng is not None else np.random.default_rng()
        self._lock = threading.Lock()
        # Counters surfaced to the GUI/stats panes.
        self.ingested = 0
        self.forwarded = 0
        self.dropped = 0
        self.transport_dropped = 0  # subset of dropped: transport-layer loss
        # Forward instants with a virtual-clock wake-up armed (arm_flush).
        self._armed: set[float] = set()
        # -- telemetry wiring (None = disabled, all guards short-circuit) ------
        self.telemetry = telemetry
        self._tracer = None
        self._m_drop_family = None
        self._m_lag = None
        if telemetry is not None and telemetry.enabled:
            self._wire_telemetry(telemetry)

    def _wire_telemetry(self, telemetry: Telemetry) -> None:
        """Register the engine's metric catalog on the bundle's registry.

        Totals already folded under the engine lock are mirrored through
        *callback* counters (scrape-time reads, zero hot-path cost); only
        genuinely new dimensions — per-reason drops, scheduler lag — pay
        an increment/observe on the pipeline itself.
        """
        reg = telemetry.registry
        reg.counter_fn(
            "poem_engine_ingested_total",
            "Frames ingested by the forwarding engine (Step 1-4 entries)",
            lambda: self.ingested,
        )
        reg.counter_fn(
            "poem_engine_forwarded_total",
            "Frames delivered to receiving clients (Step 6 completions)",
            lambda: self.forwarded,
        )
        reg.counter_fn(
            "poem_engine_dropped_total",
            "(packet, receiver) pairs dropped anywhere in the pipeline",
            lambda: self.dropped,
        )
        reg.counter_fn(
            "poem_engine_transport_dropped_total",
            "Drops caused by the transport/fault-tolerance layer "
            "(stale peers, outbox overflow), not the emulated medium",
            lambda: self.transport_dropped,
        )
        reg.counter_fn(
            "poem_deliveries_on_time_total",
            "Deliveries within the scheduler lag budget",
            lambda: self.deadlines.on_time,
        )
        reg.counter_fn(
            "poem_deliveries_late_total",
            "Deliveries beyond the lag budget but within the miss "
            "threshold",
            lambda: self.deadlines.late,
        )
        reg.counter_fn(
            "poem_deliveries_missed_total",
            "Deliveries beyond the deadline-miss threshold "
            "(10x the lag budget)",
            lambda: self.deadlines.missed,
        )
        self.overload.bind_telemetry(reg)
        self._m_drop_family = reg.counter(
            "poem_engine_drop_reason_total",
            "Drops by reason (the DropReason taxonomy)",
            labels=("reason",),
        )
        self._m_lag = reg.histogram(
            "poem_scheduler_lag_seconds",
            "Scheduler lag actual_fire - t_forward: the real-time "
            "deadline slack of Step 5",
        )
        self.schedule.bind_telemetry(reg)
        tracer = telemetry.tracer
        self._tracer = tracer
        if tracer is not None and tracer.sink is None:
            # Persist completed spans through the recorder so replay can
            # reconstruct pipeline timing (Step 7 for telemetry).
            tracer.sink = self.recorder.record_span

    # -- Step 1–4 -------------------------------------------------------------

    def ingest(
        self,
        sender: NodeId,
        packet: Packet,
        *,
        trace: Optional[Trace] = None,
    ) -> list[ScheduledPacket]:
        """Process one frame transmitted by ``sender``; returns what was scheduled.

        ``packet.t_origin`` must have been stamped by the sending client;
        when ``use_client_stamps`` is True (PoEm's mode) it anchors the
        forward-time formula.  Setting it False reproduces the JEmu-style
        server-arrival anchoring used by the Fig 2 baseline.

        Hot-path shape: one cached :class:`~repro.core.neighbor.Fanout`
        read, and Step 3 decided by that row
        (:meth:`~repro.core.neighbor.Fanout.forward`) for every frame,
        unicast or broadcast: at most one ``rng.random(n)`` call and one
        forward-time expression per segment of the row's cached link
        plan, which a unicast or a quarantined broadcast indexes by row
        position.  No ``Packet`` copy (the entries carry the stamps);
        one ``push_many``, one counter-lock acquisition and at most one
        batched recorder call.

        ``trace`` is a sampled pipeline trace started by the transport
        layer (its ``receive`` stage already recorded); when the engine
        runs standalone — no transport owning the sampling decision —
        it samples here instead.  The unsampled path pays one countdown
        decrement and a handful of ``is None`` branches.
        """
        tracer = self._tracer
        tr = trace
        ov = self.overload
        if (
            tracer is not None
            and tr is None
            and not tracer.delegated
            and ov.allow_tracing
        ):
            tr = tracer.maybe_start()
            if tr is not None:
                tr.bind(sender, packet)
        now = self.clock.now()
        if self.use_client_stamps and packet.t_origin is not None:
            t_receipt = packet.t_origin
        else:
            t_receipt = now
        # (receivers, reason, t_forward): one run of drops, recorded as
        # one row of the frame as received, stamped t_receipt (and the
        # group's t_forward, when not None).
        drops: list[tuple[tuple, str, Optional[float]]] = []

        # Admission control: while SATURATED, shed whole frames at the
        # door once the schedule passes the admission depth — the drop
        # carries the dedicated deadline-shed cause, *before* the
        # capacity bound turns the loss into queue-overflow noise.
        limit = ov.admission_limit  # None unless SATURATED
        if limit is not None and len(self.schedule) >= limit:
            ov.note_shed()
            drops.append(((None,), DropReason.DEADLINE_SHED, None))
            return self._commit_ingest(packet, sender, t_receipt, [], drops, tr)

        # Quarantined sender (liveness layer): topology kept, traffic cut.
        quarantined = self.scene.quarantined_snapshot()
        if quarantined and sender in quarantined:
            drops.append(((None,), DropReason.NODE_STALE, None))
            return self._commit_ingest(packet, sender, t_receipt, [], drops, tr)

        channel = packet.channel
        if tr is None:
            fan = self.neighbors.fanout(sender, channel)
        else:
            _t0 = _perf()
            fan = self.neighbors.fanout(sender, channel)
            tr.stage("neighbor_lookup", _perf() - _t0)
        radio = fan.radio
        if radio is None:
            drops.append(((None,), DropReason.NO_SUCH_CHANNEL, None))
            return self._commit_ingest(packet, sender, t_receipt, [], drops, tr)

        # Power consumption (§7 extension): a dead battery cannot transmit.
        if self.energy is not None and not self.energy.charge_tx(
            sender, packet.size_bits
        ):
            drops.append(((None,), DropReason.NO_ENERGY, None))
            return self._commit_ingest(packet, sender, t_receipt, [], drops, tr)

        # Medium access (§7 extension): one airtime reservation per
        # transmission.  The medium is occupied for the frame's nominal
        # serialization time at the radio's peak rate.
        airtime = packet.size_bits / radio.link.bandwidth.peak
        decision = self.mac.admit(channel, sender, t_receipt, airtime)
        if decision.collided:
            drops.append(((None,), DropReason.COLLISION, None))
            return self._commit_ingest(packet, sender, t_receipt, [], drops, tr)
        if decision.start != t_receipt:
            t_receipt = decision.start  # CSMA deferral shifts the frame

        _t_drop = _perf() if tr is not None else 0.0  # Step 3 stage timer
        at: Optional[list[int]] = None  # the targets' row positions; None: all
        if not packet.is_broadcast:
            idx = fan.index.get(packet.destination)
            if idx is None:
                drops.append(
                    ((packet.destination,), DropReason.NOT_NEIGHBOR, None)
                )
                return self._commit_ingest(
                    packet, sender, t_receipt, [], drops, tr
                )
            at = [idx]

        # Quarantined receivers hear nothing (checked before any RNG draw).
        if quarantined:
            row = fan.targets
            live = range(len(row)) if at is None else at
            keep = [i for i in live if row[i] not in quarantined]
            if len(keep) != len(live):
                drops.append((
                    tuple(row[i] for i in live if row[i] in quarantined),
                    DropReason.NODE_STALE, None,
                ))
                at = keep

        # Step 3, decided by the row: the receivers the loss model drops,
        # and runs of consecutive accepted receivers sharing a forward
        # time, one schedule entry each.
        lost, runs = fan.forward(self._rng, at, t_receipt, packet.size_bits)
        if lost:
            drops.append((lost, DropReason.LOSS_MODEL, None))
        # The frame as received; its stamps are set once, at delivery.
        scheduled = [
            ScheduledPacket(tf, packet, group, sender, t_receipt)
            for tf, group in runs
        ]
        if tr is not None:
            tr.stage("drop_decision", _perf() - _t_drop)
        if scheduled:
            if tr is None:
                accepted = self.schedule.push_many(scheduled)
            else:
                _t0 = _perf()
                accepted = self.schedule.push_many(scheduled)
                tr.stage("schedule_push", _perf() - _t0)
            offered = len(fan.targets if at is None else at) - len(lost)
            if accepted != offered:
                # Each rejected run carries its group's forward time, so
                # the drop record keeps its t_forward stamp.
                skip = accepted
                for entry in scheduled:
                    if skip < len(entry.receivers):
                        drops.append((
                            entry.receivers[skip:],
                            DropReason.QUEUE_OVERFLOW, entry.t_forward,
                        ))
                    skip = max(skip - len(entry.receivers), 0)
                scheduled = take_pairs(scheduled, accepted)
        return self._commit_ingest(packet, sender, t_receipt, scheduled, drops, tr)

    def arm_flush(self, entries: list[ScheduledPacket]) -> None:
        """Virtual-clock Step 5: wake the scan once per forward instant.

        Arms one :meth:`VirtualClock.call_at` per distinct
        ``max(entry.t_forward, now)`` that has no wake-up armed yet — the
        paper's single scanning thread, woken when the emulation clock
        meets a time to forward, not once per scheduled entry.  Every
        virtual-clock deployment (in-process, shard workers, the modelled
        baselines) arms its flushes here and nowhere else.

        Invariant: the wake-up disarms its instant *before* it flushes.
        A frame ingested during that very flush and due at once (a relay
        behind a lagging client stamp) therefore arms the instant again,
        behind every callback already queued for it, instead of being
        stranded in the schedule.
        """
        clock = self.clock
        now = clock.now()
        armed = self._armed
        for entry in entries:
            when = entry.t_forward
            if when < now:
                when = now
            if when not in armed:
                armed.add(when)
                clock.call_at(when, self._flush_armed)  # type: ignore[attr-defined]

    def _flush_armed(self) -> None:
        now = self.clock.now()  # exactly the instant this call was armed for
        self._armed.discard(now)
        self.flush_due(now)

    def _commit_ingest(
        self,
        packet: Packet,
        sender: NodeId,
        t_receipt: float,
        scheduled: list[ScheduledPacket],
        drops: list[tuple[tuple, str, Optional[float]]],
        trace: Optional[Trace] = None,
    ) -> list[ScheduledPacket]:
        """Fold one ingest's counter updates and drop rows into a single
        lock acquisition and at most one recorder call.

        Each drop run is one row (see :data:`~repro.core.packet.PacketRow`)
        of the frame as received, stamped ``t_receipt`` — and, for a
        rejected schedule suffix, its group's ``t_forward``."""
        n_drops = n_transport = 0
        fam = self._m_drop_family
        for receivers, reason, _tf in drops:
            k = len(receivers)
            n_drops += k
            if reason in DropReason.TRANSPORT:
                n_transport += k
            if fam is not None:
                fam.labels(reason).inc(k)
        with self._lock:
            self.ingested += 1
            self.dropped += n_drops
            self.transport_dropped += n_transport
        if trace is not None and self._tracer is not None:
            self._tracer.commit(trace, scheduled, drops)
        if drops:
            self.recorder.record_many(
                [
                    packet_row(packet, sender, receivers, reason, t_receipt, tf)
                    for receivers, reason, tf in drops
                ]
            )
        return scheduled

    # -- Steps 5–7 -------------------------------------------------------------

    def flush_due(self, now: Optional[float] = None) -> int:
        """Deliver every scheduled frame whose forward time has arrived.

        Returns the number delivered.  The delivery stamp ``t_delivered``
        is the emulation clock at delivery — identical to ``t_forward``
        under the virtual clock, and ``t_forward`` plus scheduling jitter
        under the real-time clock (the jitter the paper attributes to
        "overload of server computation").
        """
        if now is None:
            now = self.clock.now()
        n = self._deliver_batch(self.schedule.pop_due(now), now)
        if n == 0:
            # An idle pass is a quiet observation: it lets the overload
            # controller's EWMA decay so degraded states can recover.
            self.overload.observe(0.0, len(self.schedule))
        return n

    def flush_wait(self, now: float) -> int:
        """Real-time harvest step: deliver whatever is due at ``now``.

        The waiting happens in the caller's ``select`` (see
        :meth:`ForwardSchedule.wait_ready`); no frame is harvested
        before its forward time.  An empty harvest feeds a quiet
        observation so degraded states decay.
        """
        due = self.schedule.wait_due(now)
        if not due:
            self.overload.observe(0.0, len(self.schedule))
            return 0
        return self._deliver_batch(due, now)

    def _deliver_batch(self, due: list[ScheduledPacket], now: float) -> int:
        """Deliver a batch of entries due at ``now`` (every ``t_forward
        ≤ now``, so every lag is ≥ 0 and every delivery is stamped
        ``t_delivered = now``) with batched recording: one counter-lock
        acquisition and one ``record_many`` per flush.

        The frame-level work is done once per entry (fan-out group):
        trace lookup, scheduler lag, the shed decision, the one stamped
        copy (``t_receipt``, ``t_forward`` and ``t_delivered`` set
        together), one count-weighted observation of the scheduler-lag
        histogram (``now − t_forward``, the deadline-slack metric), and
        one row for the receivers that got the frame (see
        :data:`~repro.core.packet.PacketRow`).  Those deliveries land in
        the lag's deadline-accounting bucket where the row is built, so
        the live buckets count exactly the recorded deliveries.

        One loop walks each group's receivers and runs every check per
        receiver, after the deliveries before it: a delivery callback can
        remove a node, drain a battery or relay inline and retro-collide
        this very frame.  The MAC hooks are asked only when the MAC's
        class overrides them.  A failed check writes its drop row at
        once.  A sampled trace follows the first receiver of its packet's
        first entry (``scan_wakeup`` / ``send`` / ``record`` stages).

        Under a SATURATED overload controller, entries already later
        than the shed horizon are dropped as ``deadline-shed`` —
        delivering them would only push the backlog further behind real
        time.  A shed frame is a drop, not a delivery: it gets a drop
        record per receiver and no deadline bucket.
        """
        if not due:
            return 0
        tracer = self._tracer
        m_lag = self._m_lag
        ov = self.overload
        deadlines = self.deadlines
        scene = self.scene
        nodes = scene._nodes  # one dict membership test is atomic
        was_collided, corrupted = self._mac_hooks
        energy = self.energy
        deliver = self.deliver
        shed_horizon = ov.shed_horizon
        max_lag = 0.0
        count = 0
        shed: list[ScheduledPacket] = []
        rows: list[PacketRow] = []
        finished_traces: list[Trace] = []
        for entry in due:
            receivers = entry.receivers
            tr = None
            if tracer is not None and tracer.active:
                tr = tracer.inflight_pop(
                    (int(entry.packet.source), int(entry.packet.seqno))
                )
            t_forward = entry.t_forward
            lag = now - t_forward
            if lag > max_lag:
                max_lag = lag
            if m_lag is not None:
                m_lag.observe(lag, len(receivers))
            if shed_horizon is not None and lag > shed_horizon:
                shed.append(entry)
                if tr is not None:
                    tracer.finalize(tr, "deadline-shed")
                continue
            frame, sender, t_receipt = entry.packet, entry.sender, entry.t_receipt
            packet = frame.stamped(
                t_receipt=t_receipt, t_forward=t_forward, t_delivered=now
            )
            if tr is not None:
                tr.lag = lag
                tr.receiver = int(receivers[0])
                tr.stage("scan_wakeup", lag)
                _t0 = _perf()
            got = []
            for receiver in receivers:
                if receiver not in nodes:
                    reason = DropReason.NODE_REMOVED
                elif scene._quarantined and receiver in scene._quarantined:
                    reason = DropReason.NODE_STALE
                elif t_receipt is not None and (
                    was_collided is not None
                    and was_collided(frame.channel, sender, t_receipt)
                    or corrupted is not None
                    and corrupted(frame.channel, sender, t_receipt, receiver,
                                  scene)
                ):
                    reason = DropReason.COLLISION
                elif energy is not None and not energy.charge_rx(
                    receiver, frame.size_bits
                ):
                    reason = DropReason.NO_ENERGY
                else:
                    reason = None
                    if deliver is not None:
                        deliver(receiver, packet)
                    got.append(receiver)
                if reason is not None:
                    self._record_drop(
                        frame, sender, receiver, reason, t_receipt, t_forward
                    )
                if tr is not None:
                    tr.stage("send", _perf() - _t0)
                    if reason is None:
                        finished_traces.append(tr)
                    else:
                        tracer.finalize(tr, "dropped-at-delivery")
                    tr = None
            if got:
                # One row for the group: its own receivers tuple when
                # every receiver got the frame.
                k = len(got)
                rows.append(packet_row(
                    packet, sender,
                    receivers if k == len(receivers) else tuple(got),
                ))
                count += k
                deadlines.note(lag, k)
        if count:
            with self._lock:
                self.forwarded += count
            _t0 = _perf() if finished_traces else 0.0
            self.recorder.record_many(rows)
            if finished_traces:
                record_dur = _perf() - _t0
                for tr in finished_traces:
                    tr.stage("record", record_dur)
                    tracer.finalize(tr, "delivered")
        if shed:
            n = sum(len(e.receivers) for e in shed)
            with self._lock:
                self.dropped += n
                self.transport_dropped += n
            fam = self._m_drop_family
            if fam is not None:
                fam.labels(DropReason.DEADLINE_SHED).inc(n)
            ov.note_shed(n)
            self.recorder.record_many(
                [
                    packet_row(e.packet, e.sender, e.receivers,
                               DropReason.DEADLINE_SHED, e.t_receipt,
                               e.t_forward)
                    for e in shed
                ]
            )
        ov.observe(max_lag, len(self.schedule))
        return count

    def next_forward_time(self) -> Optional[float]:
        """When the next scheduled frame becomes due (None when idle)."""
        return self.schedule.peek_time()

    def record_transport_drop(
        self,
        packet: Packet,
        receiver: Optional[NodeId],
        reason: str = DropReason.TRANSPORT_OVERFLOW,
    ) -> None:
        """Record a frame lost at the *transport* layer (client outbox
        overflow, stale peer) so replay/stats see the loss.

        By the time a frame sits in a client's outbox the hop sender is
        no longer attached, so the record carries ``packet.source``.
        """
        self._record_drop(packet, packet.source, receiver, reason)

    # -- recording helpers -------------------------------------------------------

    def _record_drop(
        self,
        packet: Packet,
        sender: NodeId,
        receiver: Optional[NodeId],
        reason: str,
        t_receipt: Optional[float] = None,
        t_forward: Optional[float] = None,
    ) -> None:
        with self._lock:
            self.dropped += 1
            if reason in DropReason.TRANSPORT:
                self.transport_dropped += 1
        fam = self._m_drop_family
        if fam is not None:
            fam.labels(reason).inc()
        self.recorder.record_packet(
            packet_row(packet, sender, receiver, reason, t_receipt, t_forward)
        )

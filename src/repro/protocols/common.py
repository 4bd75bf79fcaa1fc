"""Shared machinery of the routed protocols (DSDV-, AODV-style, hybrid).

The three bundled routed protocols share one engine room:

* **neighbor maintenance** — periodic HELLO/advertisement beacons carry,
  per channel, the set of nodes the sender has recently heard; a link is
  considered up only when *bidirectional* (I hear you **and** your beacon
  lists me).  This is what makes Table 2 Step 2 work: shrinking VMN1's
  range makes the VMN1→VMN3 direction deaf, so both ends drop the link
  even though VMN3's range still covers VMN1.
* **path-vector routing state** — full paths (:mod:`.routing_table`), so
  route inspection prints the paper's ``1 -> 3 -> 2`` notation and loop
  freedom is checked structurally.
* **source-routed data plane** — data frames carry their path and a hop
  index; each hop unicasts to the next.  An intermediate node whose next
  hop is gone emits a route error (RERR) back toward the source.
* **on-demand discovery** — RREQ flood with (origin, id) duplicate
  suppression and path accumulation; the target (or a node with a fresh
  cached route, if enabled) answers with an RREP unicast back along the
  reverse path, installing routes on the way.

:class:`PathRoutedProtocol` implements all of it behind two switches —
``proactive`` (periodic route broadcasting) and ``ondemand`` (discovery) —
and the concrete protocols are thin configurations:

========================  ==========  =========
protocol                  proactive   ondemand
========================  ==========  =========
:class:`~repro.protocols.dsdv.DsdvProtocol`       ✓           ✗
:class:`~repro.protocols.aodv.AodvProtocol`       ✗           ✓
:class:`~repro.protocols.hybrid.HybridProtocol`   ✓           ✓
========================  ==========  =========

The hybrid row is the paper's protocol under test: "combining the
periodic-broadcasting and on-demand mechanisms to achieve high robustness
for military applications" (§6.1).
"""

from __future__ import annotations

import dataclasses
import numpy as np
import threading
from dataclasses import dataclass
from typing import Optional

from ..core.ids import ChannelId, NodeId
from ..core.packet import Packet
from ..errors import ProtocolError
from . import wire
from .base import RoutingProtocol, TimerHandle
from .routing_table import RouteEntry, RoutingTable

__all__ = ["PathRoutedProtocol", "ProtocolTuning"]


@dataclass(frozen=True)
class ProtocolTuning:
    """Timing/limits knobs, grouped so tests can speed everything up."""

    hello_interval: float = 1.0
    """Beacon period (seconds of emulation time)."""

    hello_jitter: float = 0.1
    """Beacon-period jitter fraction: each period is drawn uniformly from
    ``interval · [1−jitter, 1+jitter]``.  Desynchronizes neighbors'
    beacons — without it, nodes started together stay phase-locked and
    (under a contention MAC) their beacons collide forever."""

    neighbor_timeout: float = 3.5
    """A silent neighbor is declared lost after this long."""

    route_lifetime: float = 10.0
    """Installed routes expire after this long without refresh."""

    rreq_ttl: int = 16
    """Hop bound on discovery floods."""

    rreq_initial_ttl: Optional[int] = None
    """Expanding-ring search: first RREQ uses this TTL, each retry doubles
    it up to ``rreq_ttl``.  None (default) floods at ``rreq_ttl`` at once."""

    rreq_retries: int = 2
    """Re-flood attempts before giving up on a destination."""

    rreq_timeout: float = 2.0
    """How long to wait for an RREP before retrying."""

    pending_limit: int = 64
    """Max data packets buffered per destination during discovery."""

    control_size_bits: int = 512
    """Emulated wire size of beacons and discovery messages."""


class PathRoutedProtocol(RoutingProtocol):
    """The configurable proactive/on-demand path-vector protocol."""

    #: subclass override: protocol name in summaries/records
    name = "path-routed"

    def __init__(
        self,
        *,
        proactive: bool,
        ondemand: bool,
        tuning: Optional[ProtocolTuning] = None,
        reply_from_cache: bool = False,
    ) -> None:
        super().__init__()
        if not (proactive or ondemand):
            raise ProtocolError("protocol must be proactive, on-demand, or both")
        self.proactive = proactive
        self.ondemand = ondemand
        self.reply_from_cache = reply_from_cache
        self.tuning = tuning or ProtocolTuning()

        self.table: Optional[RoutingTable] = None
        self._lock = threading.RLock()
        self._seqno = 0
        # Liveness: when did we last hear each node, per channel.
        self._heard_at: dict[NodeId, dict[ChannelId, float]] = {}
        # What each node's latest beacon said it heard, per channel.
        self._their_heard: dict[NodeId, dict[ChannelId, frozenset[int]]] = {}
        # Currently bidirectional links: node -> channels usable to reach it.
        self._neighbor_channels: dict[NodeId, set[ChannelId]] = {}
        # On-demand state.
        self._rreq_seen: set[tuple[int, int]] = set()
        self._rreq_id = 0
        self._pending: dict[NodeId, list[tuple[bytes, Optional[int]]]] = {}
        self._retry_timers: dict[NodeId, TimerHandle] = {}
        self._retries: dict[NodeId, int] = {}
        self._tick_timer: Optional[TimerHandle] = None
        # Observable counters.
        self.data_delivered = 0
        self.data_forwarded = 0
        self.data_dropped = 0
        self.rreqs_sent = 0
        self.rreps_sent = 0
        self.rerrs_sent = 0
        self.malformed_received = 0

    # ------------------------------------------------------------------ setup

    def on_start(self) -> None:
        host = self._require_host()
        self.table = RoutingTable(host.node_id)
        # Deterministic per-node jitter source (seeded by identity).
        self._jitter_rng = np.random.default_rng(int(host.node_id) * 1009 + 5)
        self._tick()  # first beacon immediately; reschedules itself

    def on_stop(self) -> None:
        # Deliberately lock-free.  ``stop()`` can arrive from a scene
        # event listener that still holds the Scene lock (removing a
        # node live detaches its protocol), while every transmit path
        # takes the protocol lock before descending into the scene —
        # taking our lock here would close a scene -> protocol ordering
        # cycle (a potential deadlock; the runtime lock-order detector
        # convicts it).  The swap is atomic under the GIL, and
        # ``stop()`` follows up with ``timers().cancel_all()``, which
        # sweeps any timer a racing ``_tick`` re-armed in between.
        timer, self._tick_timer = self._tick_timer, None  # poem: ignore[POEM008]
        if timer is not None:
            self._require_host().timers().cancel(timer)

    # ------------------------------------------------------------- the beacon

    def _tick(self) -> None:
        host = self.host
        if host is None:
            return
        with self._lock:
            now = host.now()
            self._expire_neighbors(now)
            if self.table is not None:
                self.table.purge_expired(now)
            self._seqno += 1
            beacon = self._build_beacon(now)
            data = wire.encode(beacon)
            channels = sorted(host.channels())
        # Transmit outside the critical section: ``broadcast`` descends
        # into the scene/engine locks, and holding ours across that wait
        # is the held-lock blocking pattern ``poem lint --runtime``
        # exists to surface (it surfaced this one).
        for channel in channels:
            host.broadcast(
                data, channel=channel, kind="control",
                size_bits=self.tuning.control_size_bits,
            )
        with self._lock:
            if self.host is None:
                # ``stop()`` interleaved while we were transmitting; a
                # re-armed timer here would outlive the protocol.
                return
            jitter = self.tuning.hello_jitter
            period = self.tuning.hello_interval
            if jitter > 0:
                period *= 1.0 + float(
                    self._jitter_rng.uniform(-jitter, jitter)
                )
            self._tick_timer = host.timers().call_after(period, self._tick)

    def _build_beacon(self, now: float) -> dict:
        host = self._require_host()
        heard = {
            str(int(ch)): sorted(
                int(n)
                for n, chans in self._heard_at.items()
                if ch in chans and now - chans[ch] < self.tuning.neighbor_timeout
            )
            for ch in host.channels()
        }
        beacon: dict = {
            "t": "adv",
            "s": int(host.node_id),
            "seq": self._seqno,
            "heard": heard,
            "routes": [],
        }
        if self.proactive and self.table is not None:
            # Advertise the route to myself plus everything I know.
            routes = [[int(host.node_id), self._seqno, [int(host.node_id)]]]
            for entry in self.table.entries(now):
                routes.append(
                    [int(entry.destination), entry.seqno,
                     wire.path_to_wire(entry.path)]
                )
            beacon["routes"] = routes
        else:
            # Even pure on-demand nodes advertise themselves so direct
            # (1-hop) routes exist without discovery.
            beacon["routes"] = [
                [int(host.node_id), self._seqno, [int(host.node_id)]]
            ]
        return beacon

    # ----------------------------------------------------------- frame intake

    def on_packet(self, packet: Packet) -> None:
        host = self.host
        if host is None:
            return
        try:
            msg = wire.decode(packet.payload)
        except ProtocolError:
            return
        with self._lock:
            try:
                sender = NodeId(int(msg.get("s", msg.get("from", -1))))
                if sender >= 0 and sender != host.node_id:
                    self._note_heard(sender, packet.channel, host.now())
                kind = msg["t"]
                if kind == "adv":
                    self._on_adv(msg, packet.channel)
                elif kind == "data":
                    self._on_data(msg, packet)
                elif kind == "rreq" and self.ondemand:
                    self._on_rreq(msg)
                elif kind == "rrep" and self.ondemand:
                    self._on_rrep(msg)
                elif kind == "rerr":
                    self._on_rerr(msg)
            except (KeyError, TypeError, ValueError, IndexError,
                    AttributeError, ProtocolError):
                # Malformed or alien frame: a protocol under test must not
                # crash its host on hostile input — drop and count it.
                self.malformed_received += 1

    def _note_heard(self, node: NodeId, channel: ChannelId, now: float) -> None:
        self._heard_at.setdefault(node, {})[channel] = now

    # -------------------------------------------------------------- beacons in

    def _on_adv(self, msg: dict, channel: ChannelId) -> None:
        host = self._require_host()
        now = host.now()
        sender = NodeId(int(msg["s"]))
        if sender == host.node_id:
            return
        heard_raw = msg.get("heard", {})
        self._their_heard[sender] = {
            ChannelId(int(ch)): frozenset(int(n) for n in nodes)
            for ch, nodes in heard_raw.items()
        }
        was_neighbor = bool(self._neighbor_channels.get(sender))
        self._recompute_link(sender, now)
        is_neighbor = bool(self._neighbor_channels.get(sender))
        if not is_neighbor:
            if was_neighbor:
                self._neighbor_lost(sender)
            return
        # Install/refresh routes advertised by a live bidirectional neighbor.
        if self.table is None:
            return
        expires = now + self.tuning.route_lifetime
        for dest_raw, dseq, path_raw in msg.get("routes", []):
            dest = NodeId(int(dest_raw))
            if dest == host.node_id:
                continue
            their_path = wire.path_from_wire(path_raw)
            if not their_path or their_path[0] != sender:
                continue
            if host.node_id in their_path:
                continue  # loop prevention: never route through myself
            candidate = RouteEntry(
                destination=dest,
                path=(host.node_id,) + their_path,
                seqno=int(dseq),
                expires_at=expires,
                origin="proactive" if self.proactive else "ondemand",
            )
            self.table.consider(candidate)
        # A beacon can unblock buffered traffic two ways: it advertised a
        # new route, or it just confirmed bidirectionality of a next hop
        # an earlier RREP picked.  Try every pending destination.
        for dest in list(self._pending):
            self._flush_pending(dest)

    def _recompute_link(self, node: NodeId, now: float) -> None:
        """Re-derive which channels form a bidirectional link to ``node``."""
        host = self._require_host()
        mine = self._heard_at.get(node, {})
        theirs = self._their_heard.get(node, {})
        channels = {
            ch
            for ch, t in mine.items()
            if now - t < self.tuning.neighbor_timeout
            and int(host.node_id) in theirs.get(ch, frozenset())
            and ch in host.channels()
        }
        if channels:
            self._neighbor_channels[node] = channels
        else:
            self._neighbor_channels.pop(node, None)

    def _expire_neighbors(self, now: float) -> None:
        for node in list(self._neighbor_channels):
            self._recompute_link(node, now)
            if node not in self._neighbor_channels:
                self._neighbor_lost(node)

    def _neighbor_lost(self, node: NodeId) -> None:
        """A link went down: drop every route that used it."""
        if self.table is not None:
            self.table.invalidate_via(node)

    def neighbors(self) -> dict[NodeId, set[ChannelId]]:
        """Current bidirectional neighbors and the channels reaching them."""
        with self._lock:
            return {n: set(chs) for n, chs in self._neighbor_channels.items()}

    # ------------------------------------------------------------- data plane

    def send_data(
        self, destination: NodeId, payload: bytes, size_bits: Optional[int] = None
    ) -> bool:
        host = self._require_host()
        with self._lock:
            if destination == host.node_id:
                raise ProtocolError("cannot send data to self")
            now = host.now()
            entry = (
                self.table.lookup(destination, now) if self.table else None
            )
            if entry is not None and self._transmit_data(
                entry.path, 0, payload, size_bits
            ):
                self.table.refresh(destination, now + self.tuning.route_lifetime)
                return True
            # No route, or the route's first hop is not (yet) a confirmed
            # bidirectional neighbor — fall back to buffering + discovery.
            if not self.ondemand:
                self.data_dropped += 1
                return False
            # Buffer and discover.
            queue = self._pending.setdefault(destination, [])
            if len(queue) >= self.tuning.pending_limit:
                self.data_dropped += 1
                return False
            queue.append((payload, size_bits))
            if destination not in self._retry_timers:
                self._retries[destination] = 0
                self._send_rreq(destination)
            return True

    def _transmit_data(
        self,
        path: tuple[NodeId, ...],
        hop: int,
        payload: bytes,
        size_bits: Optional[int],
    ) -> bool:
        """Unicast one data frame to ``path[hop+1]``; False if link gone."""
        host = self._require_host()
        next_hop = path[hop + 1]
        channels = self._neighbor_channels.get(next_hop)
        if not channels:
            return False
        msg = {
            "t": "data",
            "s": int(path[hop]),
            "path": wire.path_to_wire(path),
            "i": hop + 1,
            "data": wire.encode_payload(payload),
        }
        host.transmit(
            next_hop,
            wire.encode(msg),
            channel=min(channels),
            kind="data",
            size_bits=size_bits,
        )
        return True

    def _on_data(self, msg: dict, packet: Packet) -> None:
        host = self._require_host()
        path = wire.path_from_wire(msg["path"])
        hop = int(msg["i"])
        if hop >= len(path) or path[hop] != host.node_id:
            return  # overheard frame not addressed to me on this path
        payload = wire.decode_payload(msg["data"])
        if hop == len(path) - 1:
            self.data_delivered += 1
            # Unwrap: the application sees its own payload and the packet's
            # original source (the frame's source is the last-hop relay).
            host.deliver_to_app(
                dataclasses.replace(packet, payload=payload, source=path[0])
            )
            return
        ok = self._transmit_data(path, hop, payload, packet.size_bits)
        if ok:
            self.data_forwarded += 1
        else:
            self.data_dropped += 1
            self._send_rerr(path, hop, broken=path[hop + 1])

    # --------------------------------------------------------------- discovery

    def _discovery_ttl(self, attempt: int) -> int:
        """TTL for discovery attempt ``attempt`` (0-based).

        With expanding-ring search enabled, rings double per retry:
        initial, 2·initial, 4·initial, …, capped at ``rreq_ttl``.
        """
        initial = self.tuning.rreq_initial_ttl
        if initial is None:
            return self.tuning.rreq_ttl
        return min(initial << attempt, self.tuning.rreq_ttl)

    def _send_rreq(self, destination: NodeId) -> None:
        host = self._require_host()
        self._rreq_id += 1
        self.rreqs_sent += 1
        key = (int(host.node_id), self._rreq_id)
        self._rreq_seen.add(key)
        msg = {
            "t": "rreq",
            "s": int(host.node_id),
            "o": int(host.node_id),
            "d": int(destination),
            "id": self._rreq_id,
            "ttl": self._discovery_ttl(self._retries.get(destination, 0)),
            "path": [int(host.node_id)],
        }
        data = wire.encode(msg)
        for channel in sorted(host.channels()):
            host.broadcast(data, channel=channel, kind="control",
                           size_bits=self.tuning.control_size_bits)
        self._retry_timers[destination] = host.timers().call_after(
            self.tuning.rreq_timeout, lambda: self._rreq_retry(destination)
        )

    def _rreq_retry(self, destination: NodeId) -> None:
        with self._lock:
            host = self.host
            if host is None:
                return
            self._retry_timers.pop(destination, None)
            if destination not in self._pending:
                return  # already flushed
            if self._flush_pending(destination):
                return
            attempts = self._retries.get(destination, 0)
            if attempts >= self.tuning.rreq_retries:
                dropped = self._pending.pop(destination, [])
                self.data_dropped += len(dropped)
                self._retries.pop(destination, None)
                return
            self._retries[destination] = attempts + 1
            self._send_rreq(destination)

    def _on_rreq(self, msg: dict) -> None:
        host = self._require_host()
        origin = NodeId(int(msg["o"]))
        target = NodeId(int(msg["d"]))
        key = (int(origin), int(msg["id"]))
        if origin == host.node_id or key in self._rreq_seen:
            return
        self._rreq_seen.add(key)
        path = wire.path_from_wire(msg["path"])
        if host.node_id in path:
            return
        full_path = path + (host.node_id,)
        now = host.now()
        # Learn the reverse route toward the origin for free.
        if self.table is not None and len(full_path) >= 2:
            reverse = tuple(reversed(full_path))
            self.table.consider(
                RouteEntry(
                    destination=origin,
                    path=reverse,
                    seqno=0,
                    expires_at=now + self.tuning.route_lifetime,
                    origin="ondemand",
                )
            )
        if target == host.node_id:
            self._seqno += 1
            self._send_rrep(full_path, int(msg["id"]), self._seqno)
            return
        if self.reply_from_cache and self.table is not None:
            cached = self.table.lookup(target, now)
            if cached is not None and not (set(cached.path) & set(path)):
                spliced = full_path + cached.path[1:]
                # We answer from the middle of the spliced path, not its
                # target end — the hop index is our own position.
                self._send_rrep(
                    spliced, int(msg["id"]), cached.seqno,
                    holder_index=len(full_path) - 1,
                )
                return
        ttl = int(msg["ttl"]) - 1
        if ttl <= 0:
            return
        relay = dict(msg)
        relay["s"] = int(host.node_id)
        relay["ttl"] = ttl
        relay["path"] = wire.path_to_wire(full_path)
        data = wire.encode(relay)
        for channel in sorted(host.channels()):
            host.broadcast(data, channel=channel, kind="control",
                           size_bits=self.tuning.control_size_bits)

    def _send_rrep(
        self,
        path: tuple[NodeId, ...],
        rreq_id: int,
        seq: int,
        holder_index: Optional[int] = None,
    ) -> None:
        """Answer a discovery: unicast back along the reverse of ``path``.

        ``path`` runs origin → … → target.  ``holder_index`` is the
        answering node's position in it — the target end by default, or
        the middle for a cache reply.
        """
        host = self._require_host()
        self.rreps_sent += 1
        msg = {
            "t": "rrep",
            "s": int(host.node_id),
            "id": rreq_id,
            "seq": seq,
            "path": wire.path_to_wire(path),
            "i": len(path) - 1 if holder_index is None else holder_index,
        }
        self._forward_rrep(msg)

    def _forward_rrep(self, msg: dict) -> None:
        host = self._require_host()
        path = wire.path_from_wire(msg["path"])
        i = int(msg["i"])
        if i <= 0:
            return
        prev_hop = path[i - 1]
        channels = self._neighbor_channels.get(prev_hop)
        if not channels:
            return  # reverse path broke while the RREP was in flight
        out = dict(msg)
        out["s"] = int(host.node_id)
        out["i"] = i - 1
        host.transmit(prev_hop, wire.encode(out), channel=min(channels),
                      kind="control", size_bits=self.tuning.control_size_bits)

    def _on_rrep(self, msg: dict) -> None:
        host = self._require_host()
        path = wire.path_from_wire(msg["path"])
        i = int(msg["i"])
        if i >= len(path) or path[i] != host.node_id:
            return
        target = path[-1]
        now = host.now()
        if self.table is not None:
            my_path = path[i:]
            if len(my_path) >= 2 and host.node_id not in my_path[1:]:
                changed = self.table.consider(
                    RouteEntry(
                        destination=target,
                        path=my_path,
                        seqno=int(msg["seq"]),
                        expires_at=now + self.tuning.route_lifetime,
                        origin="ondemand",
                    )
                )
                if changed and target in self._pending:
                    self._flush_pending(target)
        if i > 0:
            self._forward_rrep(msg)

    def _flush_pending(self, destination: NodeId) -> bool:
        """Release buffered data if a *usable* route exists.

        Usable means the first hop is a confirmed bidirectional neighbor —
        a route learned from an RREP can briefly outrun the HELLO
        confirmation, in which case we keep buffering and let the retry
        timer (or the next beacon-triggered flush) try again.
        """
        host = self._require_host()
        entry = self.table.lookup(destination, host.now()) if self.table else None
        if entry is None or entry.next_hop not in self._neighbor_channels:
            return False
        for payload, size_bits in self._pending.pop(destination, []):
            self._transmit_data(entry.path, 0, payload, size_bits)
        timer = self._retry_timers.pop(destination, None)
        if timer is not None:
            host.timers().cancel(timer)
        self._retries.pop(destination, None)
        return True

    # --------------------------------------------------------------- route error

    def _send_rerr(self, path: tuple[NodeId, ...], hop: int, broken: NodeId) -> None:
        """Tell the source its path broke at ``broken`` (hop ``hop``→``hop+1``)."""
        host = self._require_host()
        if hop == 0:
            self._handle_break(path[-1], broken)
            return
        prev = path[hop - 1]
        channels = self._neighbor_channels.get(prev)
        if not channels:
            return
        self.rerrs_sent += 1
        msg = {
            "t": "rerr",
            "s": int(host.node_id),
            "dest": int(path[-1]),
            "broken": int(broken),
            "path": wire.path_to_wire(path),
            "i": hop - 1,
        }
        host.transmit(prev, wire.encode(msg), channel=min(channels),
                      kind="control", size_bits=self.tuning.control_size_bits)

    def _on_rerr(self, msg: dict) -> None:
        host = self._require_host()
        path = wire.path_from_wire(msg["path"])
        i = int(msg["i"])
        if i >= len(path) or path[i] != host.node_id:
            return
        broken = NodeId(int(msg["broken"]))
        if i == 0:
            self._handle_break(NodeId(int(msg["dest"])), broken)
        else:
            # keep propagating toward the source
            prev = path[i - 1]
            channels = self._neighbor_channels.get(prev)
            if channels:
                out = dict(msg)
                out["s"] = int(host.node_id)
                out["i"] = i - 1
                host.transmit(prev, wire.encode(out), channel=min(channels),
                              kind="control",
                              size_bits=self.tuning.control_size_bits)
        if self.table is not None:
            self.table.invalidate_via(broken)

    def _handle_break(self, destination: NodeId, broken: NodeId) -> None:
        if self.table is not None:
            self.table.invalidate_via(broken)
        if self.ondemand and destination in self._pending:
            if destination not in self._retry_timers:
                self._send_rreq(destination)

    # --------------------------------------------------------------- inspection

    def route_summary(self) -> list[str]:
        """Table 2's 'routing table in VMN1' rendering."""
        with self._lock:
            if self.table is None or self.host is None:
                return []
            return self.table.summary(self.host.now())

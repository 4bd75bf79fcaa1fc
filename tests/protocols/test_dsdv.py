"""Tests for the proactive (DSDV-style) protocol."""

from collections import deque

import pytest

from repro.core.geometry import Vec2
from repro.core.ids import ChannelId
from repro.protocols.dsdv import DsdvProtocol

from ..conftest import FAST_TUNING, make_chain


def dsdv_chain(n, **kw):
    return make_chain(
        n, protocol_factory=lambda: DsdvProtocol(FAST_TUNING), **kw
    )


class TestDsdvConvergence:
    def test_direct_neighbors(self):
        emu, hosts = dsdv_chain(2)
        emu.run_until(3.0)
        assert hosts[0].protocol.route_summary() == ["1 -> 2"]
        assert hosts[1].protocol.route_summary() == ["2 -> 1"]

    def test_multihop_routes_appear_proactively(self):
        """No traffic needed — periodic broadcasting alone builds routes."""
        emu, hosts = dsdv_chain(4)
        emu.run_until(6.0)
        assert hosts[0].protocol.route_summary() == [
            "1 -> 2",
            "1 -> 2 -> 3",
            "1 -> 2 -> 3 -> 4",
        ]

    def test_routes_are_shortest_paths(self):
        """On a converged static scene, every reachable node has a route
        and its metric is the hop count a BFS over the emulator's own
        neighbor tables finds."""
        emu, hosts = dsdv_chain(5, spacing=100.0, radio_range=150.0)
        emu.run_until(8.0)
        channel = ChannelId(1)
        now = hosts[0].now()
        for host in hosts:
            hops = {host.node_id: 0}
            frontier = deque([host.node_id])
            while frontier:
                node = frontier.popleft()
                for peer in emu.neighbors.neighbors(node, channel):
                    if peer not in hops:
                        hops[peer] = hops[node] + 1
                        frontier.append(peer)
            entries = host.protocol.table.entries(now)
            assert {e.destination for e in entries} == set(hops) - {
                host.node_id
            }
            for entry in entries:
                assert entry.metric == hops[entry.destination]

    def test_data_follows_routes(self):
        emu, hosts = dsdv_chain(3)
        emu.run_until(4.0)
        assert hosts[0].protocol.send_data(hosts[2].node_id, b"proactive")
        emu.run_until(5.0)
        assert [p.payload for p in hosts[2].app_received] == [b"proactive"]

    def test_no_route_returns_false(self):
        """Pure proactive: unknown destination → refuse, don't discover."""
        emu, hosts = dsdv_chain(2)
        emu.run_until(3.0)
        from repro.core.ids import NodeId

        assert not hosts[0].protocol.send_data(NodeId(99), b"nowhere")
        assert hosts[0].protocol.rreqs_sent == 0


class TestDsdvLinkDynamics:
    def test_link_break_invalidates_routes(self):
        emu, hosts = dsdv_chain(3)
        emu.run_until(4.0)
        assert len(hosts[0].protocol.route_summary()) == 2
        # Move the middle node away: both its links die.
        emu.scene.move_node(hosts[1].node_id, Vec2(10_000, 0))
        emu.run_until(9.0)
        assert hosts[0].protocol.route_summary() == []

    def test_link_recovery(self):
        emu, hosts = dsdv_chain(3)
        emu.run_until(4.0)
        emu.scene.move_node(hosts[1].node_id, Vec2(10_000, 0))
        emu.run_until(9.0)
        emu.scene.move_node(hosts[1].node_id, Vec2(120, 0))
        emu.run_until(14.0)
        assert hosts[0].protocol.route_summary() == ["1 -> 2", "1 -> 2 -> 3"]

    def test_asymmetric_link_rejected(self):
        """Bidirectional HELLO verification: one-way links carry no routes."""
        from repro.core.ids import RadioIndex

        emu, hosts = dsdv_chain(2, spacing=120.0)
        # Node 1 can no longer hear anyone beyond 50; node 2 still reaches
        # 200. The link is one-way (2→1 audible, 1→2 audible? No: range is
        # the *transmitter's* reach in the paper's model, i.e. NT(A,k) uses
        # R(A,k): node 1's transmissions reach 120 <= 200... Set node 1's
        # range to 50 so node 2 never hears it; node 2's beacons still
        # arrive at node 1. Node 1 must NOT treat node 2 as a neighbor.
        emu.scene.set_radio_range(hosts[0].node_id, RadioIndex(0), 50.0)
        emu.run_until(6.0)
        assert hosts[0].protocol.route_summary() == []
        assert hosts[1].protocol.route_summary() == []

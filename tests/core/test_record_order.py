"""Record order and ids of a seeded mesh, pinned.

``benchmarks/e2e/expected.json`` hashes the *sorted* record multiset, so
a change that reorders records or shifts their ids passes it.  These
tests pin the exact sequence instead: every record in id order, with its
id, and every frame each host received with its stamps, after 10 + 40
beacon rounds of a 64-node mesh, static and mobile.  The digests were
taken before fan-out groups were recorded as one row each; the grouped
rows must expand to the very same sequence.

The mesh's link is constant in distance, so every target of a row shares
one forward time.  ``test_distance_dependent_link_records_pinned`` pins
unicasts and broadcasts over a link whose bandwidth and delay both
depend on distance, so each target's ``t_forward`` is its own.
"""

import hashlib
from dataclasses import astuple

import pytest

from repro.core.geometry import Vec2
from repro.core.ids import BROADCAST_NODE, ChannelId
from repro.core.server import InProcessEmulator
from repro.models.link import (
    BandwidthModel,
    DelayModel,
    LinkModel,
    PacketLossModel,
)
from repro.models.mobility import Bounds, RandomWaypoint
from repro.models.radio import RadioConfig

#: Paper Table 3 loss over an 8×8 lattice (spacing 60, range 150).
LINK = LinkModel(
    loss=PacketLossModel(p0=0.1, p1=0.9, d0=50.0, radio_range=200.0)
)
CHANNEL = ChannelId(1)
ROUNDS = 10 + 40

PINNED = {
    # mobile: (records, record digest, received digest)
    False: (
        47400,
        "4e70da6cdfc8c704981f049e4575dcbbd6f4173d22890a499e7aa9b76ec9e8ba",
        "6d34ce32bba9d1d5bcf756be7fa2f7fe15f4a05afab305163cdedecaf9133c2f",
    ),
    True: (
        44362,
        "cf94efb64dced3ad6c4ba749245a6aecc9879e9a9a3398431843281e5fa34576",
        "ba4c69df79afdaf1cc5ba9eefc75d97027259c745d347b67bf32fc2ea6205c04",
    ),
}


def run_mesh(mobile):
    emu = InProcessEmulator(seed=11, bounds=Bounds(0.0, 0.0, 480.0, 480.0))
    homes = [(30.0 + 60.0 * (i % 8), 30.0 + 60.0 * (i // 8)) for i in range(64)]
    hosts = [
        emu.add_node(Vec2(x, y), RadioConfig.single(1, 150.0, LINK))
        for x, y in homes
    ]
    if mobile:
        for host, (x, y) in zip(hosts, homes):
            emu.scene.set_mobility(
                host.node_id,
                RandomWaypoint(Bounds(x - 30, y - 30, x + 30, y + 30), 5.0, 15.0),
            )
        emu.enable_mobility_tick(0.05)
    for seq in range(ROUNDS):
        for host in hosts:
            host.transmit(
                BROADCAST_NODE, seq.to_bytes(4, "big") + b"b" * 60,
                channel=CHANNEL,
            )
        emu.run_for(0.1)
    return emu, hosts


def digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


@pytest.mark.parametrize("mobile", [False, True], ids=["static", "mobile"])
def test_record_sequence_and_received_stamps_pinned(mobile):
    emu, hosts = run_mesh(mobile)
    records = emu.recorder.packets()
    assert [r.record_id for r in records] == list(range(1, len(records) + 1))
    assert len(emu.recorder) == len(records)
    received = [
        (int(h.node_id), int(p.source), int(p.seqno), p.t_receipt,
         p.t_forward, p.t_delivered)
        for h in hosts
        for p in h.received
    ]
    got = (
        len(records),
        digest(astuple(r) for r in records),
        digest(received),
    )
    assert got == PINNED[mobile]


#: Table 3 loss, Gaussian bandwidth (edge < peak) and a per-unit delay.
VARIABLE_LINK = LinkModel(
    loss=PacketLossModel(p0=0.1, p1=0.9, d0=50.0, radio_range=200.0),
    bandwidth=BandwidthModel(peak=2e6, edge=2e5, radio_range=150.0),
    delay=DelayModel(base=0.002, per_unit=1e-5),
)

#: (records, record digest, received digest)
PINNED_VARIABLE = (
    4740,
    "85b14736443f1ba183c11d8d81481be89466ebf5c1bebc0edd121d649eb92988",
    "faec06c02094d8b451c01a796d4c9277af9f1c6290abd81b4499e0aad3551707",
)


def run_variable_mesh():
    """16 nodes at irregular spacing.  Per round every node broadcasts
    and unicasts to two others (every pair in turn, some out of range).
    From round 5 to round 14 node 6 is quarantined, so broadcasts fan
    out to a subset of their rows."""
    emu = InProcessEmulator(seed=5, bounds=Bounds(0.0, 0.0, 300.0, 300.0))
    hosts = [
        emu.add_node(
            Vec2(45.0 * (i % 4) + 7.3 * (i * i % 5),
                 45.0 * (i // 4) + 5.9 * (i * 3 % 7)),
            RadioConfig.single(1, 150.0, VARIABLE_LINK),
        )
        for i in range(16)
    ]
    for seq in range(20):
        if seq == 5:
            emu.scene.quarantine_node(hosts[6].node_id)
        if seq == 15:
            emu.scene.restore_node(hosts[6].node_id)
        for i, host in enumerate(hosts):
            size = 8 * (64 + 97 * ((i + seq) % 13))
            host.transmit(BROADCAST_NODE, b"b", channel=CHANNEL,
                          size_bits=size)
            for hop in (1 + seq % 15, 1 + (seq + 7) % 15):
                host.transmit(hosts[(i + hop) % 16].node_id, b"u",
                              channel=CHANNEL, size_bits=size)
        emu.run_for(0.1)
    return emu, hosts


def test_distance_dependent_link_records_pinned():
    emu, hosts = run_variable_mesh()
    records = emu.recorder.packets()
    received = [
        (int(h.node_id), int(p.source), int(p.seqno), p.t_receipt,
         p.t_forward, p.t_delivered)
        for h in hosts
        for p in h.received
    ]
    got = (
        len(records),
        digest(astuple(r) for r in records),
        digest(received),
    )
    assert got == PINNED_VARIABLE

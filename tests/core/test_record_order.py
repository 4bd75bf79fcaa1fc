"""Record order and ids of a seeded mesh, pinned.

``benchmarks/e2e/expected.json`` hashes the *sorted* record multiset, so
a change that reorders records or shifts their ids passes it.  These
tests pin the exact sequence instead: every record in id order, with its
id, and every frame each host received with its stamps, after 10 + 40
beacon rounds of a 64-node mesh, static and mobile.  The digests were
taken before fan-out groups were recorded as one row each; the grouped
rows must expand to the very same sequence.
"""

import hashlib
from dataclasses import astuple

import pytest

from repro.core.geometry import Vec2
from repro.core.ids import BROADCAST_NODE, ChannelId
from repro.core.server import InProcessEmulator
from repro.models.link import LinkModel, PacketLossModel
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

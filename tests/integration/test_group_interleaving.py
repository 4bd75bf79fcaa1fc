"""Per-receiver checks interleave with delivery inside one fan-out group.

A delivered frame's receivers share one schedule entry, but a delivery
callback runs inline and can change what the group's *later* receivers
hear: a relay transmitted from the callback can retro-collide the frame
under ALOHA, and a callback can remove a node from the scene.  These
tests pin that every check runs per receiver, after the deliveries
before it.
"""

from repro import AlohaMac, InProcessEmulator, RadioConfig, Vec2
from repro.core.ids import BROADCAST_NODE, ChannelId
from repro.core.packet import DropReason

CH = ChannelId(1)


def _outcomes(emu, source):
    """``{receiver: drop_reason}`` of ``source``'s first frame."""
    return {
        r.receiver: r.drop_reason
        for r in emu.recorder.packets()
        if r.source == int(source) and r.seqno == 1 and r.receiver is not None
    }


def _star(emu, **first_kwargs):
    """A sender and three receivers in range of it; the first receiver
    (lowest id, so first in its group) takes ``first_kwargs``."""
    radio = RadioConfig.single(1, 100.0)
    a = emu.add_node(Vec2(0, 0), radio)
    first = emu.add_node(Vec2(10, 0), radio, **first_kwargs)
    rest = [emu.add_node(Vec2(0, 10 * k), radio) for k in (1, 2)]
    return a, first, rest


def test_first_receivers_relay_retro_collides_the_rest_of_its_group():
    """The group's first receiver relays inline with a lagging clock
    stamp, so the relay overlaps the frame still on the air: ALOHA kills
    both, and the group's later receivers get ``collision`` rows."""
    emu = InProcessEmulator(seed=0, mac=AlohaMac())
    # A 1000-bit frame at 11 Mbps is ~91 us on air; a 50 us lag puts the
    # relay's start inside it.
    a, first, rest = _star(emu, clock_offset=-50e-6)
    relayed = []

    def relay(packet):
        if not relayed:
            relayed.append(packet)
            first.transmit(BROADCAST_NODE, b"relay", channel=CH, size_bits=1000)

    first.on_app_packet = relay
    a.transmit(BROADCAST_NODE, b"frame", channel=CH, size_bits=1000)
    emu.run_until(1.0)

    assert len(relayed) == 1
    outcome = _outcomes(emu, a.node_id)
    assert outcome[int(first.node_id)] is None  # delivered, then relayed
    for host in rest:
        assert outcome[int(host.node_id)] == DropReason.COLLISION
        assert host.received == []
    # The relay itself collided at admission.
    relay_rows = [
        r for r in emu.recorder.packets()
        if r.source == int(first.node_id)
    ]
    assert relay_rows and all(
        r.drop_reason == DropReason.COLLISION for r in relay_rows
    )


def test_callback_removing_a_later_receiver_gives_node_removed():
    """A delivery callback removes the group's next receiver mid-group;
    that receiver gets a ``node-removed`` row and the one after it is
    still delivered."""
    emu = InProcessEmulator(seed=0)
    a, first, rest = _star(emu)
    doomed, survivor = rest
    first.on_app_packet = lambda packet: emu.remove_node(doomed.node_id)
    a.transmit(BROADCAST_NODE, b"frame", channel=CH, size_bits=1000)
    emu.run_until(1.0)

    outcome = _outcomes(emu, a.node_id)
    assert outcome == {
        int(first.node_id): None,
        int(doomed.node_id): DropReason.NODE_REMOVED,
        int(survivor.node_id): None,
    }
    assert len(survivor.received) == 1
    assert doomed.node_id not in emu.scene

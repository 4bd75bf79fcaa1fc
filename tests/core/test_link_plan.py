"""The row link plan against the numpy formulation it replaced.

``Fanout.forward`` decides §3.2 Step 3 for every frame, broadcast or
unicast, over the row's cached plan in plain Python: per-target loss
probabilities compared to one ``rng.random(n)`` draw, and one forward
time per segment of targets sharing a delay and a bandwidth.  The oracle
here is the vectorized formulation (``rng.random(n) < p``, one
``t_forward`` expression over arrays, ``np.maximum`` as a causality
floor that never binds); both must lose the same receivers, schedule the
same ``(t_forward, group)`` entries and leave the RNG in the same state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import VirtualClock
from repro.core.engine import ForwardingEngine
from repro.core.geometry import Vec2
from repro.core.ids import BROADCAST_NODE, ChannelId, NodeId
from repro.core.neighbor import ChannelIndexedNeighborTables
from repro.core.packet import DropReason, Packet
from repro.core.scene import Scene
from repro.models.link import (
    BandwidthModel,
    DelayModel,
    LinkModel,
    PacketLossModel,
)
from repro.models.radio import Radio, RadioConfig

RANGE = 150.0
CH = ChannelId(1)
SENDER = NodeId(1)

LOSSES = {
    "none": PacketLossModel(p0=0.0, p1=0.0, radio_range=RANGE),
    "all": PacketLossModel(p0=1.0, p1=1.0, radio_range=RANGE),
    # 0 up to 50, 1 from 60 on: distances are drawn from both sides.
    "mix": PacketLossModel(p0=0.0, p1=1.0, d0=50.0, radio_range=60.0),
    "table3": PacketLossModel(p0=0.1, p1=0.9, d0=50.0, radio_range=200.0),
}
BANDWIDTHS = {
    "constant": BandwidthModel(peak=1e6),
    "gaussian": BandwidthModel(peak=1e6, edge=1e5, radio_range=RANGE),
}
DELAYS = {
    "constant": DelayModel(base=0.01),
    "distance": DelayModel(base=0.001, per_unit=1e-5),
}


def oracle(rng, fan, at, t_receipt, size_bits):
    """``(lost, [(t_forward, group)])`` the vectorized way."""
    link, r = fan.radio.link, fan.distances
    p = link.loss.loss_probability_array(r)
    delay = link.delay.delay_array(r)
    bw = link.bandwidth.bandwidth_array(r)
    targets = fan.targets
    if at is not None:
        p, delay, bw = p[at], delay[at], bw[at]
        targets = tuple(targets[i] for i in at)
    n = len(targets)
    if n == 0:
        return [], []
    if p.max() <= 0.0:
        mask = np.zeros(n, dtype=bool)
    elif p.min() >= 1.0:
        mask = np.ones(n, dtype=bool)
    else:
        mask = rng.random(n) < p
    t_fwd = t_receipt + delay + size_bits / bw
    np.maximum(t_fwd, t_receipt, out=t_fwd)
    lost, runs = [], []
    for target, dropped, tf in zip(targets, mask.tolist(), t_fwd.tolist()):
        if dropped:
            lost.append(target)
        elif runs and runs[-1][0] == tf:
            runs[-1][1].append(target)
        else:
            runs.append((tf, [target]))
    return lost, [(tf, tuple(group)) for tf, group in runs]


def fanout_case():
    """A sender and its targets: link choice, target distances and
    angles, quarantined targets (any number, all of them included)."""

    @st.composite
    def build(draw):
        loss = draw(st.sampled_from(sorted(LOSSES)))
        bandwidth = draw(st.sampled_from(sorted(BANDWIDTHS)))
        delay = draw(st.sampled_from(sorted(DELAYS)))
        if loss == "mix":
            distance = st.one_of(
                st.floats(0.0, 50.0), st.floats(60.0, RANGE - 1.0)
            )
        else:
            distance = st.floats(0.0, RANGE - 1.0)
        n = draw(st.integers(1, 10))
        places = draw(st.lists(
            st.tuples(distance, st.floats(0.0, 6.28)), min_size=n, max_size=n,
        ))
        stale = draw(st.lists(st.integers(0, n - 1), max_size=n,
                              unique=True))
        return loss, bandwidth, delay, places, stale

    return build()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    case=fanout_case(),
    # Receipt at 0.0 keeps a bandwidth's last bit in t_forward.
    t_receipts=st.lists(st.just(0.0) | st.floats(0.0, 1e4), min_size=1,
                        max_size=3),
    size_bits=st.integers(1, 12_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_plan_matches_the_vectorized_formulation(case, t_receipts, size_bits,
                                                 seed):
    loss, bandwidth, delay, places, stale = case
    link = LinkModel(LOSSES[loss], BANDWIDTHS[bandwidth], DELAYS[delay])
    radios = RadioConfig.of([Radio(CH, RANGE, link)])
    scene = Scene(seed=0)
    scene.add_node(SENDER, Vec2(0.0, 0.0), radios)
    for i, (d, angle) in enumerate(places):
        scene.add_node(
            NodeId(i + 2),
            Vec2(d * float(np.cos(angle)), d * float(np.sin(angle))),
            radios,
        )
    for i in stale:
        scene.quarantine_node(NodeId(i + 2))
    neighbors = ChannelIndexedNeighborTables(scene)
    engine = ForwardingEngine(
        scene, neighbors, VirtualClock(), rng=np.random.default_rng(seed),
    )
    reference_rng = np.random.default_rng(seed)
    fan = neighbors.fanout(SENDER, CH)
    quarantined = scene.quarantined_snapshot()
    live = [i for i, t in enumerate(fan.targets) if t not in quarantined]
    # Per receipt time a broadcast, then a unicast to each target: the
    # first frame builds the plan, the rest reuse it.
    frames = [
        (t_receipt, destination)
        for t_receipt in t_receipts
        for destination in (BROADCAST_NODE, *fan.targets)
    ]
    for seq, (t_receipt, destination) in enumerate(frames, 1):
        if destination == BROADCAST_NODE:
            at = None if len(live) == len(fan.targets) else live
        else:
            at = [i for i in live if fan.targets[i] == destination]
        before = len(engine.recorder)
        entries = engine.ingest(SENDER, Packet(
            source=SENDER, destination=destination, payload=b"x",
            size_bits=size_bits, seqno=seq, channel=CH, t_origin=t_receipt,
        ))
        lost = [
            NodeId(rec.receiver) for rec in engine.recorder.packets()[before:]
            if rec.drop_reason == DropReason.LOSS_MODEL
        ]
        want_lost, want_runs = oracle(
            reference_rng, fan, at, t_receipt, size_bits
        )
        assert lost == want_lost
        assert [(e.t_forward, e.receivers) for e in entries] == want_runs
        assert all(e.t_receipt == t_receipt for e in entries)
        assert (engine._rng.bit_generator.state
                == reference_rng.bit_generator.state)


def test_constant_link_row_is_one_segment():
    link = LinkModel(LOSSES["table3"], BANDWIDTHS["constant"],
                     DELAYS["constant"])
    radios = RadioConfig.of([Radio(CH, RANGE, link)])
    scene = Scene(seed=0)
    for i, x in enumerate((0.0, 40.0, 80.0, 120.0), 1):
        scene.add_node(NodeId(i), Vec2(x, 0.0), radios)
    fan = ChannelIndexedNeighborTables(scene).fanout(NodeId(1), CH)
    loss, p_min, p_max, segments, keys = fan.link_plan()
    assert segments == ((0, 3, 0.01, 1e6),)
    assert keys == [(0.01, 1e6)] * 3
    assert (p_min, p_max) == (min(loss), max(loss)) and len(loss) == 3
    assert fan.link_plan() is fan.link_plan()  # computed once per row
    # A subset indexes the row's lists; on a constant link its kept
    # targets still leave in one run.
    lost, runs = fan.forward(np.random.default_rng(0), [0, 2], 1.0, 8)
    assert len(runs) <= 1
    assert all(tf == 1.0 + 0.01 + 8 / 1e6 for tf, _ in runs)
    kept = runs[0][1] if runs else ()
    assert sorted(lost + kept) == [fan.targets[0], fan.targets[2]]

"""Property tests for the neighbor-table rows the engine forwards along.

``fanout()`` hands back a kept :class:`~repro.core.neighbor.Fanout` row
(and ``neighbors()`` the frozenset it carries) for as long as no scene
event changed what the row holds (see docs/performance.md).  A row kept
too long would silently corrupt forwarding, so these tests drive
randomized mutation sequences through both schemes and assert, after
every mutation, that the kept reads still agree with the ground-truth
predicate recomputed from scratch.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.geometry import Vec2
from repro.core.ids import ChannelId, NodeId, RadioIndex
from repro.core.neighbor import (
    ChannelIndexedNeighborTables,
    SingleTableNeighbors,
)
from repro.core.scene import Scene
from repro.models.link import DelayModel, LinkModel
from repro.models.radio import Radio, RadioConfig

CHANNELS = [ChannelId(1), ChannelId(2), ChannelId(3)]
NODE_POOL = [NodeId(i) for i in range(1, 7)]

# One randomized mutation: (kind, node_index, x, y, channel_index, range)
_op = st.tuples(
    st.sampled_from(["add", "remove", "move", "retune", "range", "link"]),
    st.integers(min_value=0, max_value=len(NODE_POOL) - 1),
    st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
    st.integers(min_value=0, max_value=len(CHANNELS) - 1),
    st.floats(min_value=1.0, max_value=250.0, allow_nan=False),
)


def _apply(scene: Scene, op) -> None:
    kind, ni, x, y, ci, rng_ = op
    node = NODE_POOL[ni]
    channel = CHANNELS[ci]
    present = node in scene
    if kind == "add" and not present:
        # Two radios half the time (multi-radio retune coverage).
        if ni % 2:
            radios = RadioConfig.of(
                [Radio(channel, rng_), Radio(CHANNELS[(ci + 1) % 3], rng_)]
            )
        else:
            radios = RadioConfig.single(int(channel), rng_)
        scene.add_node(node, Vec2(x, y), radios)
    elif kind == "remove" and present:
        scene.remove_node(node)
    elif kind == "move" and present:
        scene.move_node(node, Vec2(x, y))
    elif kind == "retune" and present:
        scene.set_radio_channel(node, RadioIndex(0), channel)
    elif kind == "range" and present:
        scene.set_radio_range(node, RadioIndex(0), rng_)
    elif kind == "link" and present:
        # The row holds the radio, and with it the link the engine reads.
        link = LinkModel(delay=DelayModel(base=rng_ / 1000.0))
        scene.set_link_model(node, RadioIndex(0), link)
    # Ops targeting absent/present nodes in the wrong state are no-ops:
    # the generator explores sequences, not precondition violations.


def _assert_consistent(scene: Scene, schemes) -> None:
    for scheme in schemes:
        for node in scene.node_ids():
            for channel in CHANNELS:
                truth = (
                    frozenset(scheme._row(node, channel))
                    if scene.radio_on_channel(node, channel) is not None
                    else frozenset()
                )
                cached = scheme.neighbors(node, channel)
                assert cached == truth, (
                    f"{type(scheme).__name__}: stale neighbors for "
                    f"node={node} channel={channel}: {cached} != {truth}"
                )
                _assert_fanout_matches(scene, scheme, node, channel, truth)


def _assert_fanout_matches(scene, scheme, node, channel, truth) -> None:
    fan = scheme.fanout(node, channel)
    radio = scene.radio_on_channel(node, channel)
    if radio is None:
        assert fan.radio is None and fan.targets == ()
        return
    assert fan.radio == radio
    assert frozenset(fan.targets) == truth
    assert fan.targets == tuple(sorted(truth))
    assert len(fan.distances) == len(fan.targets)
    pos = scene.position(node)
    for i, target in enumerate(fan.targets):
        assert fan.index[target] == i
        expected = pos.distance_to(scene.position(target))
        assert math.isclose(fan.distances[i], expected, rel_tol=1e-12, abs_tol=1e-9)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(_op, min_size=1, max_size=25))
def test_cached_reads_track_mutations(ops):
    """After every mutation both schemes' cached neighbors() and fanout()
    agree with the from-scratch predicate."""
    scene = Scene(seed=7)
    scene.add_node(NODE_POOL[0], Vec2(10, 10), RadioConfig.single(1, 120.0))
    scene.add_node(NODE_POOL[1], Vec2(80, 10), RadioConfig.single(1, 120.0))
    schemes = [ChannelIndexedNeighborTables(scene), SingleTableNeighbors(scene)]
    try:
        _assert_consistent(scene, schemes)
        for op in ops:
            _apply(scene, op)
            _assert_consistent(scene, schemes)
    finally:
        for scheme in schemes:
            scheme.detach()


class Scripted:
    """A trajectory that stays wherever the test last put it."""

    def __init__(self, pos: Vec2) -> None:
        self.pos = pos

    def position_at(self, t: float) -> Vec2:
        return self.pos


# One mobility tick: the nodes to move (k of them, 0 <= k <= n) and where.
_tick = st.tuples(
    st.just("tick"),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(NODE_POOL) - 1),
            st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
        ),
        max_size=len(NODE_POOL),
        unique_by=lambda move: move[0],
    ),
)


def _apply_mobile(scene: Scene, trajectories: dict, step) -> None:
    """``_apply`` on a scene whose every node rides a :class:`Scripted`
    trajectory, plus the tick step.  A dragged node keeps its script, so
    the next tick snaps it back (the scene's documented semantics)."""
    if step[0] == "tick":
        for ni, x, y in step[1]:
            trajectory = trajectories.get(NODE_POOL[ni])
            if trajectory is not None:
                trajectory.pos = Vec2(x, y)
        scene.advance_time(scene.time + 0.05)
        return
    _apply(scene, step)
    node = NODE_POOL[step[1]]
    if node in scene and node not in trajectories:
        trajectories[node] = Scripted(scene.position(node))
        scene.set_trajectory(node, trajectories[node])
    elif node not in scene:
        trajectories.pop(node, None)


def _assert_matches_ground_truth(scene: Scene, schemes) -> None:
    nodes = scene.node_ids()
    for scheme in schemes:
        for node in nodes:
            for channel in CHANNELS:
                truth = frozenset(
                    other for other in nodes
                    if scene.is_neighbor(node, other, channel)
                )
                name = type(scheme).__name__
                assert scheme.neighbors(node, channel) == truth, (
                    f"{name}: NT({node}, {channel})"
                )
                fan = scheme.fanout(node, channel)
                fresh = scheme._build_fanout(node, channel)
                assert fan.radio == fresh.radio
                assert fan.targets == fresh.targets == tuple(sorted(truth))
                assert fan.index == fresh.index
                # Bit-for-bit: the loss draws are a function of these.
                assert np.array_equal(fan.distances, fresh.distances)


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=st.lists(st.one_of(_op, _tick), min_size=1, max_size=25))
def test_ticks_interleaved_with_single_mutations(steps):
    """Mobility ticks moving any number of nodes, interleaved with every
    single-node mutation: after each step both schemes equal the scene's
    own predicate and the cached fan-out equals one built from scratch.

    A listener registered *ahead of* the schemes reads every row and
    fan-out on each event, as a renderer would.  What it reads mid-event
    is what the scheme held before absorbing the event, so this test
    fails if such a read survives it: the indexed scheme fills it into
    the table the event swaps out, and the contrast scheme's cache is
    dropped by the version bump, which comes after every listener ran.
    """
    scene = Scene(seed=7)
    schemes = []

    def reader(event):
        for scheme in schemes:
            for node in scene.node_ids():
                for channel in CHANNELS:
                    scheme.neighbors(node, channel)
                    scheme.fanout(node, channel)

    scene.add_listener(reader)
    trajectories: dict = {}
    # Asymmetric ranges from the start: 2 hears 1, 1 does not hear 2.
    for op in (
        ("add", 0, 10.0, 10.0, 0, 60.0),
        ("add", 1, 80.0, 10.0, 0, 120.0),
        ("add", 2, 40.0, 60.0, 1, 90.0),
    ):
        _apply_mobile(scene, trajectories, op)
    schemes += [ChannelIndexedNeighborTables(scene), SingleTableNeighbors(scene)]
    try:
        _assert_matches_ground_truth(scene, schemes)
        for step in steps:
            _apply_mobile(scene, trajectories, step)
            _assert_matches_ground_truth(scene, schemes)
    finally:
        for scheme in schemes:
            scheme.detach()


def test_a_move_replaces_only_the_rows_it_reaches():
    """A move swaps a table in on the mover's channels only, and that
    table keeps every row the mover cannot have changed (the paper's
    §4.2 point, observable as the identity of the rows)."""
    scene = Scene(seed=0)
    one, two = ChannelId(1), ChannelId(2)
    for i, (x, channel) in enumerate(
        [(0, 1), (40, 1), (300, 1), (340, 1), (0, 2), (10, 2)], start=1
    ):
        scene.add_node(NodeId(i), Vec2(x, 0), RadioConfig.single(channel, 50.0))
    scheme = ChannelIndexedNeighborTables(scene)
    before = {
        (i, channel): scheme.fanout(NodeId(i), channel)
        for i, channel in [(1, one), (2, one), (3, one), (4, one), (5, two)]
    }
    version = scene.version
    scene.move_node(NodeId(1), Vec2(5, 0))
    assert scene.version == version + 1
    # Another channel, and senders the mover was and stays out of range of.
    assert scheme.fanout(NodeId(5), two) is before[5, two]
    assert scheme.fanout(NodeId(3), one) is before[3, one]
    assert scheme.fanout(NodeId(4), one) is before[4, one]
    # The mover's row and the row of the sender that reaches it are new.
    for i, peer in ((1, 2), (2, 1)):
        fan = scheme.fanout(NodeId(i), one)
        assert fan is not before[i, one]
        assert fan.targets == (NodeId(peer),)
        assert fan.distances.tolist() == [35.0]
    # Moving out of a sender's range replaces that sender's row too.
    scene.move_node(NodeId(1), Vec2(0, 200))
    assert scheme.fanout(NodeId(2), one).targets == ()
    assert scheme.fanout(NodeId(3), one) is before[3, one]
    scheme.detach()


def test_neighbors_returns_cached_identical_object():
    """Steady state: repeated reads return the same frozenset object (no
    per-read copy — the whole point of the cache)."""
    scene = Scene(seed=0)
    scene.add_node(NodeId(1), Vec2(0, 0), RadioConfig.single(1, 50.0))
    scene.add_node(NodeId(2), Vec2(10, 0), RadioConfig.single(1, 50.0))
    for cls in (ChannelIndexedNeighborTables, SingleTableNeighbors):
        scheme = cls(scene)
        try:
            first = scheme.neighbors(NodeId(1), ChannelId(1))
            assert first == frozenset({NodeId(2)})
            assert scheme.neighbors(NodeId(1), ChannelId(1)) is first
            fan = scheme.fanout(NodeId(1), ChannelId(1))
            assert scheme.fanout(NodeId(1), ChannelId(1)) is fan
            # A mutation invalidates; the rebuilt row is correct.
            scene.move_node(NodeId(2), Vec2(100, 0))
            assert scheme.neighbors(NodeId(1), ChannelId(1)) == frozenset()
            assert scheme.fanout(NodeId(1), ChannelId(1)).targets == ()
            scene.move_node(NodeId(2), Vec2(10, 0))  # restore for next cls
        finally:
            scheme.detach()


def hears_2d(pos, range2, i):
    """Row ``i`` the way the tables once computed it: one ``(n, 2)``
    position array, column views and 2-D indexing.  Returns
    ``(target slots, distances)``."""
    x, y = pos[:, 0], pos[:, 1]
    dx = x[slice(None)] - x[i, None]
    dy = y[slice(None)] - y[i, None]
    dist2 = dx * dx + dy * dy
    within = dist2 <= range2[i, None]
    within[i] = False
    hit = np.flatnonzero(within)
    return hit.tolist(), np.sqrt(dist2[hit])


_spot = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    places=st.lists(
        st.tuples(_spot, _spot, st.floats(min_value=1.0, max_value=400.0)),
        min_size=1, max_size=12,
    ),
    moves=st.lists(
        st.lists(st.tuples(st.integers(0, 11), _spot, _spot), max_size=6),
        max_size=4,
    ),
)
def test_row_is_bit_equal_to_the_2d_formulation(places, moves):
    """A cold row from the 1-D coordinate arrays equals the 2-D
    formulation bit for bit, on a fresh table and on the tables that
    moves derive from it."""
    scene = Scene(seed=0)
    nodes = [NodeId(i + 1) for i in range(len(places))]
    for node, (x, y, r) in zip(nodes, places):
        scene.add_node(node, Vec2(x, y), RadioConfig.single(1, r))
    tables = ChannelIndexedNeighborTables(scene)
    channel = CHANNELS[0]
    for tick in [[]] + moves:
        staged = {nodes[i % len(nodes)]: Vec2(x, y) for i, x, y in tick}
        scene.move_nodes(list(staged.items()))
        table = tables._tables[channel]
        pos = scene.positions_array(list(table.members))
        for i, member in enumerate(table.members):
            fan = table.row(i)
            slots, distances = hears_2d(pos, table.range2, i)
            assert fan.targets == tuple(table.members[j] for j in slots)
            assert fan.distances.tobytes() == distances.tobytes()
            # And what the engine reads (kept or rebuilt) agrees too.
            assert tables.fanout(member, channel).distances.tobytes() == (
                distances.tobytes()
            )

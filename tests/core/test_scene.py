"""Tests for repro.core.scene — the central consistent scene."""

import pytest

from repro.core.geometry import Vec2
from repro.core.ids import ChannelId, NodeId, RadioIndex
from repro.core.scene import Scene
from repro.errors import (
    ConfigurationError, SceneError, UnknownNodeError, UnknownRadioError,
)
from repro.models.link import LinkModel, PacketLossModel
from repro.models.mobility import Bounds, ConstantVelocity, Stationary
from repro.models.radio import Radio, RadioConfig


def n(i):
    return NodeId(i)


@pytest.fixture
def scene():
    s = Scene(seed=0)
    s.add_node(n(1), Vec2(0, 0), RadioConfig.single(1, 100.0), label="A")
    s.add_node(n(2), Vec2(50, 0), RadioConfig.single(1, 100.0), label="B")
    s.add_node(
        n(3),
        Vec2(0, 80),
        RadioConfig.of([Radio(ChannelId(1), 100.0), Radio(ChannelId(2), 150.0)]),
        label="C",
    )
    return s


class TestLifecycle:
    def test_add_and_query(self, scene):
        assert len(scene) == 3
        assert n(1) in scene and n(9) not in scene
        assert scene.position(n(2)) == Vec2(50, 0)
        assert scene.label(n(1)) == "A"

    def test_default_label(self):
        s = Scene()
        s.add_node(n(7), Vec2(0, 0), RadioConfig.single(1, 10))
        assert s.label(n(7)) == "VMN7"

    def test_duplicate_rejected(self, scene):
        with pytest.raises(SceneError):
            scene.add_node(n(1), Vec2(1, 1), RadioConfig.single(1, 10))

    def test_remove(self, scene):
        scene.remove_node(n(2))
        assert n(2) not in scene
        with pytest.raises(UnknownNodeError):
            scene.position(n(2))

    def test_remove_unknown(self, scene):
        with pytest.raises(UnknownNodeError):
            scene.remove_node(n(99))

    def test_bounds_enforced_on_add(self):
        s = Scene(bounds=Bounds(0, 0, 100, 100))
        with pytest.raises(SceneError):
            s.add_node(n(1), Vec2(200, 0), RadioConfig.single(1, 10))

    @pytest.mark.parametrize("x,y", [(float("nan"), 0.0), (0.0, float("inf"))])
    def test_non_finite_position_rejected_on_add(self, scene, x, y):
        with pytest.raises(ConfigurationError, match="finite"):
            scene.add_node(n(4), Vec2(x, y), RadioConfig.single(1, 10))
        assert n(4) not in scene


class TestMutations:
    def test_move(self, scene):
        scene.move_node(n(1), Vec2(10, 10))
        assert scene.position(n(1)) == Vec2(10, 10)

    def test_move_applies_bounds(self):
        s = Scene(bounds=Bounds(0, 0, 100, 100, policy="clamp"))
        s.add_node(n(1), Vec2(50, 50), RadioConfig.single(1, 10))
        s.move_node(n(1), Vec2(500, 50))
        assert s.position(n(1)) == Vec2(100, 50)

    def test_non_finite_move_moves_nothing(self, scene):
        """One bad position in a batch fails the whole batch: no node
        moved, no event, no version bump."""
        events = []
        scene.add_listener(events.append)
        version = scene.version
        with pytest.raises(ConfigurationError, match="finite"):
            scene.move_nodes([(n(1), Vec2(5, 5)),
                              (n(2), Vec2(float("-inf"), 0))])
        assert scene.position(n(1)) == Vec2(0, 0)
        assert scene.position(n(2)) == Vec2(50, 0)
        assert events == [] and scene.version == version

    def test_set_channel(self, scene):
        scene.set_radio_channel(n(1), RadioIndex(0), ChannelId(5))
        assert scene.channels_of(n(1)) == {5}

    def test_set_channel_bad_radio(self, scene):
        with pytest.raises(UnknownRadioError):
            scene.set_radio_channel(n(1), RadioIndex(3), ChannelId(5))

    def test_set_range(self, scene):
        scene.set_radio_range(n(1), RadioIndex(0), 42.0)
        assert scene.radios(n(1))[0].range == 42.0

    def test_set_link_model(self, scene):
        link = LinkModel(loss=PacketLossModel(p0=0.5, p1=0.5, radio_range=100))
        scene.set_link_model(n(1), RadioIndex(0), link)
        assert scene.radios(n(1))[0].link.loss.p0 == 0.5


class TestQueries:
    def test_channels_of(self, scene):
        assert scene.channels_of(n(3)) == {1, 2}

    def test_nodes_on_channel(self, scene):
        assert scene.nodes_on_channel(ChannelId(1)) == {n(1), n(2), n(3)}
        assert scene.nodes_on_channel(ChannelId(2)) == {n(3)}
        assert scene.nodes_on_channel(ChannelId(9)) == set()

    def test_all_channels(self, scene):
        assert scene.all_channels() == {1, 2}

    def test_distance(self, scene):
        assert scene.distance_between(n(1), n(2)) == pytest.approx(50.0)

    def test_radio_on_channel(self, scene):
        radio = scene.radio_on_channel(n(3), ChannelId(2))
        assert radio is not None and radio.range == 150.0
        assert scene.radio_on_channel(n(1), ChannelId(2)) is None

    def test_is_neighbor_basic(self, scene):
        assert scene.is_neighbor(n(1), n(2), ChannelId(1))
        assert not scene.is_neighbor(n(1), n(1), ChannelId(1))

    def test_is_neighbor_needs_common_channel(self, scene):
        assert not scene.is_neighbor(n(1), n(3), ChannelId(2))

    def test_is_neighbor_asymmetric_range(self):
        """B ∈ NT(A,k) uses R(A,k): asymmetric ranges → asymmetric tables."""
        s = Scene()
        s.add_node(n(1), Vec2(0, 0), RadioConfig.single(1, 50.0))
        s.add_node(n(2), Vec2(80, 0), RadioConfig.single(1, 100.0))
        assert not s.is_neighbor(n(1), n(2), ChannelId(1))  # 80 > 50
        assert s.is_neighbor(n(2), n(1), ChannelId(1))      # 80 <= 100

    def test_positions_array(self, scene):
        arr = scene.positions_array([n(1), n(2)])
        assert arr.shape == (2, 2)
        assert arr[1, 0] == 50.0

    def test_snapshot(self, scene):
        snap = scene.snapshot()
        assert snap[n(3)]["radios"][1]["channel"] == 2


class TestEvents:
    def test_listener_receives_all_kinds(self, scene):
        events = []
        scene.add_listener(lambda e: events.append(e.kind))
        scene.move_node(n(1), Vec2(1, 1))
        scene.set_radio_channel(n(1), RadioIndex(0), ChannelId(4))
        scene.set_radio_range(n(1), RadioIndex(0), 70.0)
        scene.remove_node(n(2))
        assert events == ["node-moved", "channel-set", "range-set",
                          "node-removed"]

    def test_listener_removal(self, scene):
        events = []
        cb = lambda e: events.append(e)  # noqa: E731
        scene.add_listener(cb)
        scene.remove_listener(cb)
        scene.move_node(n(1), Vec2(1, 1))
        assert events == []

    def test_add_emits_full_details(self):
        s = Scene()
        events = []
        s.add_listener(events.append)
        s.add_node(n(5), Vec2(3, 4), RadioConfig.single(2, 60.0), label="X")
        (e,) = events
        assert e.kind == "node-added"
        assert e.details["x"] == 3 and e.details["label"] == "X"
        assert e.details["radios"] == [{"channel": 2, "range": 60.0}]


class TestTime:
    def test_advance_moves_mobile_nodes(self, scene):
        scene.set_mobility(n(1), ConstantVelocity(10.0, 0.0))
        moved = scene.advance_time(2.0)
        assert moved == [n(1)]
        assert scene.position(n(1)).x == pytest.approx(20.0)

    def test_stationary_never_moves(self, scene):
        scene.set_mobility(n(1), Stationary())
        assert scene.advance_time(100.0) == []

    def test_time_cannot_go_backwards(self, scene):
        scene.advance_time(5.0)
        with pytest.raises(SceneError):
            scene.advance_time(4.0)

    def test_clear_mobility(self, scene):
        scene.set_mobility(n(1), ConstantVelocity(10.0, 0.0))
        scene.set_mobility(n(1), None)
        scene.advance_time(5.0)
        assert scene.position(n(1)) == Vec2(0, 0)

    def test_mobility_emits_move_events(self, scene):
        events = []
        scene.add_listener(lambda e: events.append(e.kind))
        scene.set_mobility(n(2), ConstantVelocity(5.0, 90.0))
        scene.advance_time(1.0)
        assert "node-moved" in events


class CountingTrajectory:
    """Moves +1 in x per second from ``origin``; counts its evaluations."""

    def __init__(self, origin):
        self.origin = origin
        self.calls = 0

    def position_at(self, t):
        self.calls += 1
        return Vec2(self.origin.x + t, self.origin.y)


class TestAdvanceOncePerInstant:
    """An instant is evaluated once, a tick is assigned before it is
    emitted, and neither changes what listeners and callers see."""

    @pytest.fixture
    def tracked(self, scene):
        trajectories = {}
        for node in (n(1), n(2), n(3)):
            trajectories[node] = CountingTrajectory(scene.position(node))
            scene.set_trajectory(node, trajectories[node])
        return trajectories

    def test_same_instant_is_free(self, scene, tracked):
        assert scene.advance_time(1.0) == [n(1), n(2), n(3)]
        calls = {node: t.calls for node, t in tracked.items()}
        events = []
        scene.add_listener(events.append)
        version = scene.version
        assert scene.advance_time(1.0) == []
        assert scene.advance_time(1.0) == []
        assert {node: t.calls for node, t in tracked.items()} == calls
        assert events == [] and scene.version == version
        assert scene.time == 1.0

    def test_next_instant_evaluates_again(self, scene, tracked):
        scene.advance_time(1.0)
        assert scene.advance_time(2.0) == [n(1), n(2), n(3)]
        assert all(t.calls == 2 for t in tracked.values())

    def test_move_node_snaps_back_at_same_instant(self, scene, tracked):
        scene.advance_time(1.0)
        scene.move_node(n(1), Vec2(40, 40))
        assert scene.position(n(1)) == Vec2(40, 40)
        assert scene.advance_time(1.0) == [n(1)]
        assert scene.position(n(1)) == Vec2(1, 0)

    def test_set_mobility_forces_reevaluation(self, scene, tracked):
        scene.advance_time(1.0)
        before = tracked[n(2)].calls
        scene.set_mobility(n(1), ConstantVelocity(10.0, 0.0))
        assert scene.advance_time(1.0) == []  # new trajectory starts here
        assert tracked[n(2)].calls == before + 1

    def test_set_trajectory_forces_reevaluation(self, scene, tracked):
        scene.advance_time(1.0)
        late = CountingTrajectory(Vec2(5, 5))
        scene.set_trajectory(n(2), late)
        assert scene.advance_time(1.0) == [n(2)]
        assert late.calls == 1 and scene.position(n(2)) == Vec2(6, 5)

    def test_backwards_still_raises(self, scene, tracked):
        scene.advance_time(2.0)
        assert scene.advance_time(2.0) == []
        with pytest.raises(SceneError):
            scene.advance_time(1.5)

    def test_event_order_and_bumps_per_tick(self, scene, tracked):
        events = []
        scene.add_listener(events.append)
        version = scene.version
        scene.advance_time(1.0)
        assert [(e.kind, e.node, e.time) for e in events] == [
            ("node-moved", n(1), 1.0),
            ("node-moved", n(2), 1.0),
            ("node-moved", n(3), 1.0),
        ]
        assert events[1].details == {"x": 51.0, "y": 0.0}
        # One bump per tick, however many nodes moved.
        assert scene.version == version + 1

    def test_listeners_see_the_whole_tick_applied(self, scene, tracked):
        """The first node-moved of a tick already shows every node at its
        new position, and the versions still at their old values."""
        version = scene.version
        seen = []

        def listener(event):
            seen.append(
                (
                    [scene.position(node).x for node in (n(1), n(2), n(3))],
                    scene.version,
                    scene.tick_movers,
                )
            )

        scene.add_listener(listener)
        scene.advance_time(1.0)
        movers = {ChannelId(1): [n(1), n(2), n(3)], ChannelId(2): [n(3)]}
        assert seen == [([1.0, 51.0, 1.0], version, movers)] * 3
        assert seen[0][2] is seen[2][2]  # one object per tick
        assert scene.tick_movers is None

    def test_single_move_is_not_a_batch(self, scene):
        seen = []
        scene.add_listener(lambda e: seen.append(scene.tick_movers))
        scene.set_trajectory(n(2), CountingTrajectory(Vec2(50, 0)))
        scene.advance_time(1.0)  # a one-node tick
        scene.move_node(n(1), Vec2(3, 3))
        assert seen == [None, None, None]  # mobility-set, 2 x node-moved

    def test_reentrant_move_inside_a_tick_is_a_single_move(self, scene, tracked):
        seen = []

        def listener(event):
            seen.append((event.node, scene.tick_movers is not None))
            if event.node == n(1) and len(seen) == 1:
                scene.move_node(n(2), Vec2(7, 7))

        scene.add_listener(listener)
        scene.advance_time(1.0)
        assert seen == [
            (n(1), True), (n(2), False), (n(2), True), (n(3), True),
        ]
        # The drag invalidated the instant: the trajectory wins it back.
        assert scene.advance_time(1.0) == [n(2)]

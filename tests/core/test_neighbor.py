"""Tests for repro.core.neighbor — the channel-indexed tables (§4.2)."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.geometry import Vec2
from repro.core.ids import ChannelId, NodeId, RadioIndex
from repro.core.neighbor import (
    ChannelIndexedNeighborTables,
    SingleTableNeighbors,
)
from repro.core.scene import Scene
from repro.models.radio import Radio, RadioConfig


def n(i):
    return NodeId(i)


def ch(k):
    return ChannelId(k)


def ground_truth(scene, node, channel):
    """The paper's predicate, straight from the scene."""
    return frozenset(
        other
        for other in scene.node_ids()
        if other != node and scene.is_neighbor(node, other, channel)
    )


def assert_scheme_correct(scheme, scene):
    """Every (node, channel) row equals the ground-truth predicate."""
    for node in scene.node_ids():
        for channel in scene.all_channels() | {ch(999)}:
            assert scheme.neighbors(node, channel) == ground_truth(
                scene, node, channel
            ), f"row mismatch for node={node} channel={channel}"


@pytest.fixture(params=[ChannelIndexedNeighborTables, SingleTableNeighbors])
def scheme_cls(request):
    return request.param


def build_multi_scene():
    scene = Scene(seed=1)
    scene.add_node(n(1), Vec2(0, 0), RadioConfig.single(1, 100.0))
    scene.add_node(n(2), Vec2(60, 0), RadioConfig.single(1, 100.0))
    scene.add_node(
        n(3), Vec2(0, 60),
        RadioConfig.of([Radio(ch(1), 100.0), Radio(ch(2), 100.0)]),
    )
    scene.add_node(n(4), Vec2(50, 60), RadioConfig.single(2, 100.0))
    return scene


class TestBothSchemes:
    """Behavioural contract shared by indexed and single-table schemes."""

    def test_initial_build(self, scheme_cls):
        scene = build_multi_scene()
        scheme = scheme_cls(scene)
        assert_scheme_correct(scheme, scene)

    def test_no_radio_on_channel_is_empty(self, scheme_cls):
        scene = build_multi_scene()
        scheme = scheme_cls(scene)
        assert scheme.neighbors(n(1), ch(2)) == frozenset()

    def test_move_updates_both_directions(self, scheme_cls):
        scene = build_multi_scene()
        scheme = scheme_cls(scene)
        scene.move_node(n(2), Vec2(500, 0))
        assert_scheme_correct(scheme, scene)
        assert n(2) not in scheme.neighbors(n(1), ch(1))
        assert n(1) not in scheme.neighbors(n(2), ch(1))

    def test_range_change_affects_own_row_only(self, scheme_cls):
        scene = build_multi_scene()
        scheme = scheme_cls(scene)
        scene.set_radio_range(n(1), RadioIndex(0), 10.0)
        assert_scheme_correct(scheme, scene)
        assert scheme.neighbors(n(1), ch(1)) == frozenset()
        # n(2)'s range is unchanged: it still sees n(1).
        assert n(1) in scheme.neighbors(n(2), ch(1))

    def test_retune_moves_between_tables(self, scheme_cls):
        scene = build_multi_scene()
        scheme = scheme_cls(scene)
        scene.set_radio_channel(n(2), RadioIndex(0), ch(2))
        assert_scheme_correct(scheme, scene)
        assert scheme.neighbors(n(2), ch(1)) == frozenset()
        assert n(4) in scheme.neighbors(n(2), ch(2))

    def test_remove_node(self, scheme_cls):
        scene = build_multi_scene()
        scheme = scheme_cls(scene)
        scene.remove_node(n(3))
        assert_scheme_correct(scheme, scene)

    def test_add_node_later(self, scheme_cls):
        scene = build_multi_scene()
        scheme = scheme_cls(scene)
        scene.add_node(n(5), Vec2(30, 30), RadioConfig.single(1, 100.0))
        assert_scheme_correct(scheme, scene)
        assert n(5) in scheme.neighbors(n(1), ch(1))

    def test_rebuild_matches_incremental(self, scheme_cls):
        scene = build_multi_scene()
        scheme = scheme_cls(scene)
        scene.move_node(n(1), Vec2(10, 10))
        scene.set_radio_channel(n(4), RadioIndex(0), ch(1))
        incremental = {
            (node, channel): scheme.neighbors(node, channel)
            for node in scene.node_ids()
            for channel in scene.all_channels()
        }
        scheme.rebuild()
        for key, row in incremental.items():
            assert scheme.neighbors(*key) == row

    # scheme_cls is a class (stateless) — safe to share across examples.
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=25),
           st.integers(0, 10_000))
    def test_random_event_streams_stay_correct(self, scheme_cls, ops, seed):
        """Property: any mutation sequence leaves rows == ground truth."""
        rng = np.random.default_rng(seed)
        scene = build_multi_scene()
        scheme = scheme_cls(scene)
        for op in ops:
            nodes = scene.node_ids()
            if not nodes:
                break
            target = nodes[int(rng.integers(len(nodes)))]
            if op == 0:
                scene.move_node(
                    target,
                    Vec2(float(rng.uniform(-50, 150)),
                         float(rng.uniform(-50, 150))),
                )
            elif op == 1:
                scene.set_radio_range(
                    target, RadioIndex(0), float(rng.uniform(10, 200))
                )
            elif op == 2:
                scene.set_radio_channel(
                    target, RadioIndex(0), ch(int(rng.integers(1, 4)))
                )
            elif op == 3 and len(nodes) > 2:
                scene.remove_node(target)
        assert_scheme_correct(scheme, scene)


class TestOnePredicate:
    """``D(A,B) <= R(A,k)`` has one evaluation, so who-hears-whom does
    not depend on the update path that last touched the pair."""

    # hypot(B) <= 150 < sqrt(x² + y²) in floats: the two spellings of the
    # predicate disagree about this point.
    EDGE = Vec2(38.269125996437914, 145.0361127287572)

    @pytest.mark.parametrize("path", ["move_node", "move_nodes", "add_node"])
    def test_boundary_pair_reads_the_same_on_every_path(self, path):
        scene = Scene(seed=0)
        a, b, c = n(1), n(2), n(3)
        scene.add_node(a, Vec2(0, 0), RadioConfig.single(1, 150.0))
        scene.add_node(c, Vec2(900, 900), RadioConfig.single(1, 150.0))
        if path != "add_node":
            scene.add_node(b, Vec2(10, 10), RadioConfig.single(1, 150.0))
        live = ChannelIndexedNeighborTables(scene)
        assert_scheme_correct(live, scene)  # rows read before the change
        if path == "move_node":
            scene.move_node(b, self.EDGE)
        elif path == "move_nodes":
            scene.move_nodes([(b, self.EDGE), (c, Vec2(901, 900))])
        else:
            scene.add_node(b, self.EDGE, RadioConfig.single(1, 150.0))
        fresh = ChannelIndexedNeighborTables(scene)
        a_hears_b = b in live.neighbors(a, ch(1))
        assert a_hears_b == (a in live.neighbors(b, ch(1)))  # equal ranges
        assert a_hears_b == scene.is_neighbor(a, b, ch(1))
        assert a_hears_b == scene.is_neighbor(b, a, ch(1))
        assert live.table_for_channel(ch(1)) == fresh.table_for_channel(ch(1))
        assert_scheme_correct(live, scene)


class TestReadsBesideWrites:
    def test_rows_stay_whole_while_another_thread_moves_nodes(self):
        """The server reads fan-outs on its loop thread while the mobility
        thread moves nodes: every row handed out is a finished one."""
        scene = Scene(seed=0)
        nodes = [n(i + 1) for i in range(64)]
        for i, node in enumerate(nodes):
            home = Vec2(30.0 + 60.0 * (i % 8), 30.0 + 60.0 * (i // 8))
            scene.add_node(node, home, RadioConfig.single(1, 150.0))
        scheme = ChannelIndexedNeighborTables(scene)
        stop = threading.Event()
        failures = []

        def mover():
            rng = np.random.default_rng(0)
            try:
                while not stop.is_set():
                    picks = rng.choice(64, size=int(rng.integers(1, 9)),
                                       replace=False)
                    moves = [
                        (nodes[k], Vec2(float(rng.uniform(0, 480)),
                                        float(rng.uniform(0, 480))))
                        for k in picks.tolist()
                    ]
                    if len(moves) == 1:
                        scene.move_node(*moves[0])
                    else:
                        scene.move_nodes(moves)
            except Exception as exc:  # reported by the assert below
                failures.append(exc)

        thread = threading.Thread(target=mover)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            reads = 0
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                for node in nodes:
                    fan = scheme.fanout(node, ch(1))
                    assert len(fan.targets) == len(fan.distances) == len(fan.index)
                    assert fan.neighbors == frozenset(fan.targets)
                    reads += 1
        finally:
            stop.set()
            thread.join(timeout=10.0)
            sys.setswitchinterval(interval)
            scheme.detach()
        assert not thread.is_alive() and not failures, failures
        assert reads >= 64
        assert_scheme_correct(scheme, scene)


class TestSchemesAgree:
    """The two schemes must be observationally identical."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_agreement_under_churn(self, seed):
        rng = np.random.default_rng(seed)
        scene = build_multi_scene()
        indexed = ChannelIndexedNeighborTables(scene)
        single = SingleTableNeighbors(scene)
        for _ in range(15):
            nodes = scene.node_ids()
            target = nodes[int(rng.integers(len(nodes)))]
            roll = rng.random()
            if roll < 0.5:
                scene.move_node(
                    target,
                    Vec2(float(rng.uniform(-100, 200)),
                         float(rng.uniform(-100, 200))),
                )
            elif roll < 0.8:
                scene.set_radio_channel(
                    target, RadioIndex(0), ch(int(rng.integers(1, 4)))
                )
            else:
                scene.set_radio_range(
                    target, RadioIndex(0), float(rng.uniform(20, 150))
                )
            for node in scene.node_ids():
                for channel in scene.all_channels():
                    assert indexed.neighbors(node, channel) == single.neighbors(
                        node, channel
                    )


class TestUpdateCost:
    """The §4.2 claim: the indexed scheme touches fewer units."""

    def test_fig6_example(self):
        """The paper's own example: node a on channel 2 changing must not
        touch the channel-1 table."""
        scene = Scene()
        # channel-1 community
        for i in range(1, 6):
            scene.add_node(n(i), Vec2(i * 10.0, 0), RadioConfig.single(1, 100))
        # node a on channel 2 plus a peer
        scene.add_node(n(10), Vec2(0, 50), RadioConfig.single(2, 100))
        scene.add_node(n(11), Vec2(10, 50), RadioConfig.single(2, 100))
        indexed = ChannelIndexedNeighborTables(scene)
        before = indexed.table_for_channel(ch(1))
        indexed.stats.reset()
        scene.move_node(n(10), Vec2(5, 55))  # change node a (channel 2)
        after = indexed.table_for_channel(ch(1))
        assert before == after  # channel-1 table untouched
        # Units touched bounded by the channel-2 population, not the scene.
        assert indexed.stats.units_touched <= 2 * 2

    def test_indexed_cheaper_than_single(self):
        rng = np.random.default_rng(0)
        scene = Scene(seed=0)
        for i in range(1, 31):
            channel = 1 + (i % 3)
            scene.add_node(
                n(i),
                Vec2(float(rng.uniform(0, 300)), float(rng.uniform(0, 300))),
                RadioConfig.single(channel, 120.0),
            )
        indexed = ChannelIndexedNeighborTables(scene)
        single = SingleTableNeighbors(scene)
        indexed.stats.reset()
        single.stats.reset()
        for _ in range(50):
            target = n(int(rng.integers(1, 31)))
            scene.move_node(
                target,
                Vec2(float(rng.uniform(0, 300)), float(rng.uniform(0, 300))),
            )
        assert indexed.stats.units_touched < single.stats.units_touched

    def test_detach_stops_updates(self):
        scene = build_multi_scene()
        scheme = ChannelIndexedNeighborTables(scene)
        scheme.detach()
        scheme.stats.reset()
        scene.move_node(n(1), Vec2(500, 500))
        assert scheme.stats.events == 0

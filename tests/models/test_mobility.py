"""Tests for repro.models.mobility — the §4.3.1 generalized 4-tuple model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Vec2
from repro.errors import ConfigurationError
from repro.models.mobility import (
    Bounds,
    Choice,
    Constant,
    ConstantVelocity,
    GeneralizedMobility,
    MobilityLeg,
    RandomWalk,
    RandomWaypoint,
    Stationary,
    Trajectory,
    Uniform,
)


class TestParams:
    def test_constant(self):
        assert Constant(5.0).sample(np.random.default_rng(0)) == 5.0

    def test_uniform_in_range(self):
        rng = np.random.default_rng(0)
        p = Uniform(2.0, 4.0)
        samples = [p.sample(rng) for _ in range(200)]
        assert all(2.0 <= s <= 4.0 for s in samples)
        assert max(samples) - min(samples) > 0.5  # actually varies

    def test_uniform_degenerate(self):
        assert Uniform(3.0, 3.0).sample(np.random.default_rng(0)) == 3.0

    def test_uniform_inverted_rejected(self):
        with pytest.raises(ConfigurationError):
            Uniform(4.0, 2.0)

    def test_choice(self):
        rng = np.random.default_rng(0)
        p = Choice((1.0, 2.0, 3.0))
        assert all(p.sample(rng) in (1.0, 2.0, 3.0) for _ in range(50))

    def test_choice_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Choice(())


class TestMobilityLeg:
    def test_displacement_matches_paper_formula(self):
        """x += v·t_move·cosθ, y += v·t_move·sinθ."""
        leg = MobilityLeg(pause_time=1.0, direction=30.0, speed=2.0,
                          move_time=3.0)
        d = leg.displacement()
        assert d.x == pytest.approx(6.0 * math.cos(math.radians(30)))
        assert d.y == pytest.approx(6.0 * math.sin(math.radians(30)))

    def test_position_during_pause(self):
        leg = MobilityLeg(1.0, 0.0, 10.0, 2.0)
        start = Vec2(5, 5)
        assert leg.position_at(start, 0.5) == start

    def test_position_during_move(self):
        leg = MobilityLeg(1.0, 0.0, 10.0, 2.0)
        p = leg.position_at(Vec2(0, 0), 2.0)  # 1s into the move
        assert p.x == pytest.approx(10.0)

    def test_position_clamped_at_leg_end(self):
        leg = MobilityLeg(0.0, 0.0, 10.0, 1.0)
        assert leg.position_at(Vec2(0, 0), 99.0).x == pytest.approx(10.0)


class TestGeneralizedModel:
    def test_random_walk_parameterization(self):
        """The paper's special case: pause=0, dir U[0,360), v U[lo,hi]."""
        rng = np.random.default_rng(0)
        model = RandomWalk(min_speed=1.0, max_speed=3.0, time_step=0.5)
        legs = [model.next_leg(rng, Vec2(0, 0)) for _ in range(100)]
        assert all(leg.pause_time == 0.0 for leg in legs)
        assert all(leg.move_time == 0.5 for leg in legs)
        assert all(1.0 <= leg.speed <= 3.0 for leg in legs)
        assert all(0.0 <= leg.direction < 360.0 for leg in legs)
        # Directions genuinely spread over the circle.
        assert max(leg.direction for leg in legs) > 270
        assert min(leg.direction for leg in legs) < 90

    def test_negative_params_rejected(self):
        with pytest.raises(ConfigurationError):
            GeneralizedMobility(pause_time=Constant(-1.0))
        with pytest.raises(ConfigurationError):
            GeneralizedMobility(move_speed=Uniform(-2.0, 1.0))

    def test_zero_duration_leg_becomes_dwell(self):
        model = GeneralizedMobility(
            pause_time=0.0, move_speed=0.0, move_time=0.0
        )
        leg = model.next_leg(np.random.default_rng(0), Vec2(0, 0))
        assert leg.duration > 0 and leg.speed == 0.0


class TestConstantVelocity:
    def test_fig9_relay(self):
        """10 units/s 'downwards' (270°): y decreases, x constant."""
        model = ConstantVelocity(10.0, 270.0)
        traj = Trajectory(Vec2(120, 0), model, np.random.default_rng(0))
        p = traj.position_at(3.0)
        assert p.x == pytest.approx(120.0, abs=1e-9)
        assert p.y == pytest.approx(-30.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ConstantVelocity(-1.0, 0.0)
        with pytest.raises(ConfigurationError):
            ConstantVelocity(1.0, 0.0, leg_time=0.0)


class TestRandomWaypoint:
    def test_stays_in_area(self):
        area = Bounds(0, 0, 100, 100)
        model = RandomWaypoint(area, 1.0, 5.0, pause_time=0.5)
        traj = Trajectory(Vec2(50, 50), model, np.random.default_rng(3),
                          bounds=area)
        for t in np.linspace(0, 200, 401):
            assert area.contains(traj.position_at(float(t)))

    def test_speed_bounds_respected(self):
        area = Bounds(0, 0, 100, 100)
        model = RandomWaypoint(area, 2.0, 4.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            leg = model.next_leg(rng, Vec2(50, 50))
            if leg.move_time > 0:
                assert 2.0 <= leg.speed <= 4.0

    def test_validation(self):
        area = Bounds(0, 0, 100, 100)
        with pytest.raises(ConfigurationError):
            RandomWaypoint(area, 0.0, 5.0)
        with pytest.raises(ConfigurationError):
            RandomWaypoint(area, 5.0, 2.0)


class TestBounds:
    def test_contains(self):
        b = Bounds(0, 0, 10, 10)
        assert b.contains(Vec2(5, 5)) and b.contains(Vec2(0, 10))
        assert not b.contains(Vec2(-1, 5))

    def test_clamp(self):
        b = Bounds(0, 0, 10, 10, policy="clamp")
        assert b.apply(Vec2(15, -3)) == Vec2(10, 0)

    def test_wrap(self):
        b = Bounds(0, 0, 10, 10, policy="wrap")
        p = b.apply(Vec2(12, -3))
        assert (p.x, p.y) == pytest.approx((2.0, 7.0))

    def test_reflect(self):
        b = Bounds(0, 0, 10, 10, policy="reflect")
        p = b.apply(Vec2(12, -3))
        assert (p.x, p.y) == pytest.approx((8.0, 3.0))

    def test_reflect_multiple_folds(self):
        b = Bounds(0, 0, 10, 10, policy="reflect")
        assert b.apply(Vec2(25, 0)).x == pytest.approx(5.0)

    @given(st.floats(-1000, 1000, allow_nan=False),
           st.floats(-1000, 1000, allow_nan=False))
    def test_all_policies_map_inside(self, x, y):
        for policy in ("clamp", "wrap", "reflect"):
            b = Bounds(0, 0, 50, 30, policy=policy)
            assert b.contains(b.apply(Vec2(x, y)))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Bounds(0, 0, 0, 10)
        with pytest.raises(ConfigurationError):
            Bounds(0, 0, 10, 10, policy="bounce")


class TestTrajectory:
    def test_deterministic_reevaluation(self):
        """Two queries at the same t agree (legs are memoized)."""
        model = RandomWalk(1.0, 5.0)
        traj = Trajectory(Vec2(0, 0), model, np.random.default_rng(7))
        a = traj.position_at(12.345)
        _ = traj.position_at(50.0)  # extend well past
        b = traj.position_at(12.345)
        assert a == b

    def test_continuity(self):
        """Positions move at most v_max·dt between samples."""
        model = RandomWalk(1.0, 5.0, time_step=1.0)
        traj = Trajectory(Vec2(0, 0), model, np.random.default_rng(7))
        dt = 0.05
        prev = traj.position_at(0.0)
        for t in np.arange(dt, 20.0, dt):
            cur = traj.position_at(float(t))
            assert prev.distance_to(cur) <= 5.0 * dt + 1e-9
            prev = cur

    def test_query_before_start_rejected(self):
        traj = Trajectory(Vec2(0, 0), Stationary(), np.random.default_rng(0),
                          t0=5.0)
        with pytest.raises(ConfigurationError):
            traj.position_at(4.0)

    def test_sample(self):
        traj = Trajectory(Vec2(1, 2), Stationary(), np.random.default_rng(0))
        pts = traj.sample(0.0, 2.0, 0.5)
        assert len(pts) == 5
        assert all(p == Vec2(1, 2) for p in pts)

    def test_sample_bad_step(self):
        traj = Trajectory(Vec2(0, 0), Stationary(), np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            traj.sample(0, 1, 0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000), st.floats(0.1, 50.0))
    def test_binary_search_consistent_with_scan(self, seed, t):
        """position_at's bisection matches a naive linear leg scan."""
        model = RandomWalk(0.5, 2.0, time_step=0.7)
        rng = np.random.default_rng(seed)
        traj = Trajectory(Vec2(0, 0), model, rng)
        p = traj.position_at(t)
        # Recompute by walking the memoized legs linearly.
        for leg_start, start_pos, leg in traj._legs:
            if leg_start <= t < leg_start + leg.duration:
                expected = leg.position_at(start_pos, t - leg_start)
                assert p == expected
                break


def bisected_position(traj, t):
    """Position at ``t`` by binary search over the memoized legs and the
    leg formula written out (``from_polar``, then the bounds policy):
    the reference for the cursor in :meth:`Trajectory.position_at`."""
    legs = traj._legs
    lo, hi = 0, len(legs) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if legs[mid][0] <= t:
            lo = mid
        else:
            hi = mid - 1
    leg_start, start, leg = legs[lo]
    elapsed = t - leg_start
    if elapsed <= leg.pause_time:
        p = start
    else:
        moving = min(elapsed - leg.pause_time, leg.move_time)
        p = start + Vec2.from_polar(leg.speed * moving, leg.direction)
    return p if traj.bounds is None else traj.bounds.apply(p)


class TestTrajectoryCursor:
    """The cursor and the per-leg heading are bit-equal to a binary search
    over the legs, for any order of query times."""

    MODELS = {
        "waypoint": lambda area: RandomWaypoint(area, 1.0, 30.0,
                                                Uniform(0.0, 1.0)),
        "walk": lambda area: RandomWalk(1.0, 40.0, time_step=0.3),
        "velocity": lambda area: ConstantVelocity(25.0, 37.0, leg_time=0.7),
        "stationary": lambda area: Stationary(),
    }

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        model=st.sampled_from(sorted(MODELS)),
        policy=st.sampled_from([None, "reflect", "clamp", "wrap"]),
        seed=st.integers(0, 2**32 - 1),
        t0=st.sampled_from([0.0, 2.5]),
        # Unsorted offsets: queries go back in time and repeat.
        offsets=st.lists(
            st.floats(0.0, 30.0) | st.sampled_from([0.0, 0.3, 0.7, 1.4]),
            min_size=1, max_size=40,
        ),
    )
    def test_matches_binary_search(self, model, policy, seed, t0, offsets):
        area = Bounds(0.0, 0.0, 40.0, 30.0, policy or "reflect")
        traj = Trajectory(
            Vec2(10.0, 20.0), self.MODELS[model](area),
            np.random.default_rng(seed),
            bounds=None if policy is None else area, t0=t0,
        )
        times = [t0 + dt for dt in offsets]
        got = [traj.position_at(t) for t in times]
        for t, p in zip(times, got):
            want = bisected_position(traj, t)
            assert (p.x.hex(), p.y.hex()) == (want.x.hex(), want.y.hex())
        # Legs are drawn in horizon order whatever the query order, so a
        # trajectory queried in ascending order agrees too.
        ordered = Trajectory(
            Vec2(10.0, 20.0), self.MODELS[model](area),
            np.random.default_rng(seed),
            bounds=None if policy is None else area, t0=t0,
        )
        by_time = {t: ordered.position_at(t) for t in sorted(times)}
        assert got == [by_time[t] for t in times]

    def test_query_back_in_time_and_before_start(self):
        traj = Trajectory(Vec2(0, 0), RandomWalk(1.0, 2.0, 0.5),
                          np.random.default_rng(3), t0=1.0)
        late = traj.position_at(9.0)
        early = traj.position_at(1.2)
        assert early == bisected_position(traj, 1.2)
        assert traj.position_at(9.0) == late
        with pytest.raises(ConfigurationError):
            traj.position_at(0.5)

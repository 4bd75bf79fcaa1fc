"""Tests for repro.core.geometry."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.geometry import (
    Vec2,
    distance,
    heading_vector,
    points_within,
)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestVec2:
    def test_add_sub(self):
        assert Vec2(1, 2) + Vec2(3, 4) == Vec2(4, 6)
        assert Vec2(3, 4) - Vec2(1, 2) == Vec2(2, 2)

    def test_scalar_ops(self):
        assert Vec2(1, 2) * 3 == Vec2(3, 6)
        assert 3 * Vec2(1, 2) == Vec2(3, 6)
        assert Vec2(2, 4) / 2 == Vec2(1, 2)
        assert -Vec2(1, -2) == Vec2(-1, 2)

    def test_norm(self):
        assert Vec2(3, 4).norm() == pytest.approx(5.0)
        assert Vec2(0, 0).norm() == 0.0

    def test_distance_to(self):
        assert Vec2(0, 0).distance_to(Vec2(3, 4)) == pytest.approx(5.0)

    def test_as_tuple(self):
        assert Vec2(1.5, -2.5).as_tuple() == (1.5, -2.5)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Vec2(1, 2).x = 5  # type: ignore[misc]

    def test_from_polar_axes(self):
        east = Vec2.from_polar(10, 0)
        assert east.x == pytest.approx(10) and east.y == pytest.approx(0)
        north = Vec2.from_polar(10, 90)
        assert north.x == pytest.approx(0, abs=1e-9)
        assert north.y == pytest.approx(10)
        south = Vec2.from_polar(10, 270)
        assert south.y == pytest.approx(-10)

    @given(finite, finite)
    def test_distance_symmetric(self, x, y):
        a, b = Vec2(x, y), Vec2(y, x)
        assert distance(a, b) == pytest.approx(distance(b, a))

    @given(finite, finite, finite, finite)
    def test_triangle_inequality(self, x1, y1, x2, y2):
        a, b, o = Vec2(x1, y1), Vec2(x2, y2), Vec2(0, 0)
        assert distance(a, b) <= distance(a, o) + distance(o, b) + 1e-6


class TestHeading:
    def test_unit_length(self):
        for angle in (0, 37, 90, 123.4, 270, 359):
            assert heading_vector(angle).norm() == pytest.approx(1.0)


class TestPointsWithin:
    def test_empty(self):
        assert points_within(Vec2(0, 0), 10, []).shape == (0,)

    def test_inclusive_boundary(self):
        # D(A,B) <= R — the paper's predicate is inclusive.
        mask = points_within(Vec2(0, 0), 5.0, [Vec2(5, 0), Vec2(5.001, 0)])
        assert mask.tolist() == [True, False]

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            points_within(Vec2(0, 0), 1.0, np.zeros((3, 3)))

    def test_basic(self):
        pts = [Vec2(1, 1), Vec2(10, 10), Vec2(-2, 0)]
        mask = points_within(Vec2(0, 0), 3.0, pts)
        assert mask.tolist() == [True, False, True]

    @given(st.lists(st.tuples(finite, finite), max_size=30), finite)
    def test_matches_scalar_predicate(self, raw, radius):
        radius = abs(radius)
        pts = [Vec2(x, y) for x, y in raw]
        center = Vec2(1.0, -1.0)
        mask = points_within(center, radius, pts)
        for p, hit in zip(pts, mask):
            d = distance(center, p)
            if abs(d - radius) <= 1e-9 * max(1.0, radius):
                continue  # within float rounding of the exact boundary
            assert hit == (d <= radius)

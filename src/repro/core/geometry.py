"""2-D geometry primitives for the emulated plane.

The paper models node positions on a 2-D plane in abstract distance units
("(unit)" in Table 3).  Single-pair operations use a lightweight immutable
:class:`Vec2`; bulk neighbor recomputation uses vectorized numpy helpers so
scenes with hundreds of VMNs update in microseconds rather than Python-loop
milliseconds (see DESIGN.md §3, ``core.geometry``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Vec2",
    "distance",
    "points_within",
    "heading_vector",
]


@dataclass(frozen=True, slots=True)
class Vec2:
    """An immutable point / displacement on the emulation plane."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Vec2":
        return Vec2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __truediv__(self, k: float) -> "Vec2":
        return Vec2(self.x / k, self.y / k)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def norm(self) -> float:
        """Euclidean length."""
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)

    @staticmethod
    def from_polar(radius: float, angle_deg: float) -> "Vec2":
        """Build a displacement from a length and a heading in degrees.

        Headings follow the paper's mobility model: degrees measured
        counter-clockwise from the +x axis (so 90° points "up"; the paper's
        Fig 9 relay moves "downwards" with direction 270°... the paper lists
        -90°/90° loosely — we adopt the standard mathematical convention).
        """
        rad = math.radians(angle_deg)
        return Vec2(radius * math.cos(rad), radius * math.sin(rad))


def distance(a: Vec2, b: Vec2) -> float:
    """Euclidean distance ``D(A, B)`` between two points (paper §4.2)."""
    return a.distance_to(b)


def heading_vector(angle_deg: float) -> Vec2:
    """Unit vector pointing along ``angle_deg`` (degrees CCW from +x)."""
    return Vec2.from_polar(1.0, angle_deg)


def points_within(
    center: Vec2, radius: float, points: Sequence[Vec2] | np.ndarray
) -> np.ndarray:
    """Boolean mask of points within ``radius`` of ``center`` (inclusive).

    Inclusive comparison matches the paper's neighborhood predicate
    ``D(A,B) <= R(A,k)``.
    """
    arr = _as_array(points)
    if arr.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    dx = arr[:, 0] - center.x
    dy = arr[:, 1] - center.y
    return dx * dx + dy * dy <= radius * radius


def _as_array(points: Sequence[Vec2] | np.ndarray | Iterable[Vec2]) -> np.ndarray:
    if isinstance(points, np.ndarray):
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"expected (n, 2) array, got shape {points.shape}")
        return points.astype(float, copy=False)
    return np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)

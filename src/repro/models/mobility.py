"""Mobility models (paper §4.3.1).

The paper generalizes VMN mobility as a 4-tuple

    ``<pause_time, direction, move_speed, move_time>``

where each component is either a constant or a random draw from a range.
Successive *legs* are generated from the tuple; during a leg the node first
pauses, then moves with

    ``x(t + Δt) = x(t) + v · t_move · cos θ``
    ``y(t + Δt) = y(t) + v · t_move · sin θ``

Choosing the components appropriately recovers the classic 2-D entity
models of Camp et al. [11]: e.g. the Random Walk model is
``pause_time = 0``, ``direction ~ U[0°, 360°)``,
``speed ~ U[minspeed, maxspeed]``, ``move_time = time_step``.

This module implements the generalized model plus the named
specializations, a :class:`Trajectory` that evaluates position at any
emulation time (piecewise-linear, cached leg-by-leg), and boundary
policies (reflect / wrap / clamp) for bounded emulation areas.

All randomness flows through an explicit ``numpy.random.Generator`` so
scenes are reproducible from a seed — the reproducibility the paper's
"drift of random number generator" error analysis (§6.2) wishes it had.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..core.geometry import Vec2
from ..errors import ConfigurationError

__all__ = [
    "Param",
    "Constant",
    "Uniform",
    "Choice",
    "MobilityLeg",
    "MobilityModel",
    "GeneralizedMobility",
    "RandomWalk",
    "RandomWaypoint",
    "ConstantVelocity",
    "Stationary",
    "Bounds",
    "Trajectory",
]


# ---------------------------------------------------------------------------
# Parameter specifications: "constant or variation range" (paper's words).
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Constant:
    """A parameter fixed to one value."""

    value: float

    def sample(self, rng: np.random.Generator) -> float:
        return self.value


@dataclass(frozen=True, slots=True)
class Uniform:
    """A parameter drawn uniformly from ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ConfigurationError(
                f"uniform range inverted: [{self.low}, {self.high}]"
            )

    def sample(self, rng: np.random.Generator) -> float:
        if self.high == self.low:
            return self.low
        return float(rng.uniform(self.low, self.high))


@dataclass(frozen=True, slots=True)
class Choice:
    """A parameter drawn uniformly from a finite set of values."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError("Choice needs at least one value")

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.values[int(rng.integers(len(self.values)))])


Param = Union[Constant, Uniform, Choice]


def _as_param(value: Union[Param, float, int]) -> Param:
    """Coerce bare numbers to :class:`Constant` for ergonomic configs."""
    if isinstance(value, (Constant, Uniform, Choice)):
        return value
    return Constant(float(value))


# ---------------------------------------------------------------------------
# Legs and models.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MobilityLeg:
    """One realized step of the 4-tuple: pause, then move.

    ``direction`` is degrees CCW from +x; ``speed`` in units/s;
    ``move_time`` in seconds.
    """

    pause_time: float
    direction: float
    speed: float
    move_time: float
    #: ``(cos, sin)`` of ``direction``, computed once per leg.
    heading: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rad = math.radians(self.direction)
        object.__setattr__(self, "heading", (math.cos(rad), math.sin(rad)))

    @property
    def duration(self) -> float:
        return self.pause_time + self.move_time

    def displacement(self) -> Vec2:
        """Total displacement of the leg (paper's update formula)."""
        return Vec2.from_polar(self.speed * self.move_time, self.direction)

    def position_at(self, start: Vec2, elapsed: float) -> Vec2:
        """Position ``elapsed`` seconds into the leg, starting from ``start``."""
        if elapsed <= self.pause_time:
            return start
        moving = self.speed * min(elapsed - self.pause_time, self.move_time)
        cos, sin = self.heading
        return Vec2(start.x + moving * cos, start.y + moving * sin)


class MobilityModel:
    """Generator of successive :class:`MobilityLeg` values."""

    def next_leg(self, rng: np.random.Generator, position: Vec2) -> MobilityLeg:
        """Draw the next leg; ``position`` lets waypoint models aim."""
        raise NotImplementedError


class GeneralizedMobility(MobilityModel):
    """The paper's 4-tuple model with constant-or-random components."""

    def __init__(
        self,
        pause_time: Union[Param, float] = 0.0,
        direction: Union[Param, float] = Uniform(0.0, 360.0),
        move_speed: Union[Param, float] = Constant(1.0),
        move_time: Union[Param, float] = Constant(1.0),
    ) -> None:
        self.pause_time = _as_param(pause_time)
        self.direction = _as_param(direction)
        self.move_speed = _as_param(move_speed)
        self.move_time = _as_param(move_time)
        self._validate()

    def _validate(self) -> None:
        for name, p in (
            ("pause_time", self.pause_time),
            ("move_speed", self.move_speed),
            ("move_time", self.move_time),
        ):
            low = p.value if isinstance(p, Constant) else (
                p.low if isinstance(p, Uniform) else min(p.values)
            )
            if low < 0:
                raise ConfigurationError(f"{name} must be non-negative (min {low})")

    def next_leg(self, rng: np.random.Generator, position: Vec2) -> MobilityLeg:
        leg = MobilityLeg(
            pause_time=self.pause_time.sample(rng),
            direction=self.direction.sample(rng),
            speed=self.move_speed.sample(rng),
            move_time=self.move_time.sample(rng),
        )
        if leg.duration <= 0:
            # A zero-duration leg would stall trajectory evaluation; treat
            # it as a one-second dwell (a stationary model should use
            # Stationary, which does this intentionally).
            return MobilityLeg(1.0, leg.direction, 0.0, 0.0)
        return leg


class RandomWalk(GeneralizedMobility):
    """Random Walk: the paper's worked specialization of the 4-tuple.

    ``pause_time = 0``, ``direction ~ U[0, 360)``,
    ``speed ~ U[min_speed, max_speed]``, ``move_time = time_step``.
    """

    def __init__(
        self, min_speed: float, max_speed: float, time_step: float = 1.0
    ) -> None:
        super().__init__(
            pause_time=Constant(0.0),
            direction=Uniform(0.0, 360.0),
            move_speed=Uniform(min_speed, max_speed),
            move_time=Constant(time_step),
        )


class RandomWaypoint(MobilityModel):
    """Random Waypoint over a rectangular area.

    Picks a uniform destination in the area, travels straight at a uniform
    random speed, pauses, repeats — expressed as 4-tuple legs whose
    direction/move_time are derived from the chosen waypoint, showing the
    generalized model "practically diverges to different 2-D entity
    mobility models" as the paper claims.
    """

    def __init__(
        self,
        area: "Bounds",
        min_speed: float,
        max_speed: float,
        pause_time: Union[Param, float] = 0.0,
    ) -> None:
        if min_speed <= 0 or max_speed < min_speed:
            raise ConfigurationError(
                f"need 0 < min_speed <= max_speed, got [{min_speed}, {max_speed}]"
            )
        self.area = area
        self.min_speed = min_speed
        self.max_speed = max_speed
        self.pause_time = _as_param(pause_time)

    def next_leg(self, rng: np.random.Generator, position: Vec2) -> MobilityLeg:
        target = Vec2(
            float(rng.uniform(self.area.x_min, self.area.x_max)),
            float(rng.uniform(self.area.y_min, self.area.y_max)),
        )
        delta = target - position
        dist = delta.norm()
        speed = float(rng.uniform(self.min_speed, self.max_speed))
        if dist == 0.0:
            return MobilityLeg(max(self.pause_time.sample(rng), 1e-9), 0.0, 0.0, 0.0)
        direction = math.degrees(math.atan2(delta.y, delta.x)) % 360.0
        return MobilityLeg(
            pause_time=self.pause_time.sample(rng),
            direction=direction,
            speed=speed,
            move_time=dist / speed,
        )


class ConstantVelocity(MobilityModel):
    """Straight-line motion — the Fig 9 relay (10 units/s "downwards").

    The experiment scenario uses this with ``direction=270`` (screen-down
    in the standard CCW-from-+x convention).
    """

    def __init__(self, speed: float, direction: float, leg_time: float = 1.0) -> None:
        if speed < 0:
            raise ConfigurationError(f"speed must be non-negative: {speed}")
        if leg_time <= 0:
            raise ConfigurationError(f"leg_time must be positive: {leg_time}")
        self.speed = speed
        self.direction = direction % 360.0
        self.leg_time = leg_time

    def next_leg(self, rng: np.random.Generator, position: Vec2) -> MobilityLeg:
        return MobilityLeg(0.0, self.direction, self.speed, self.leg_time)


class Stationary(MobilityModel):
    """A node that never moves (infinite dwell expressed as long pauses)."""

    def next_leg(self, rng: np.random.Generator, position: Vec2) -> MobilityLeg:
        return MobilityLeg(pause_time=3600.0, direction=0.0, speed=0.0, move_time=0.0)


# ---------------------------------------------------------------------------
# Bounded areas and trajectories.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Bounds:
    """A rectangular emulation area with a boundary policy.

    ``policy`` is one of ``"reflect"`` (bounce off walls, preserving leg
    timing), ``"clamp"`` (stick to the wall), or ``"wrap"`` (torus).
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    policy: str = "reflect"

    def __post_init__(self) -> None:
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ConfigurationError("degenerate bounds")
        if self.policy not in ("reflect", "clamp", "wrap"):
            raise ConfigurationError(f"unknown boundary policy: {self.policy}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def contains(self, p: Vec2) -> bool:
        return (
            self.x_min <= p.x <= self.x_max and self.y_min <= p.y <= self.y_max
        )

    def apply(self, p: Vec2) -> Vec2:
        """Map an out-of-area point back inside per the policy."""
        if self.contains(p):
            return p
        if self.policy == "clamp":
            return Vec2(
                min(max(p.x, self.x_min), self.x_max),
                min(max(p.y, self.y_min), self.y_max),
            )
        if self.policy == "wrap":
            return Vec2(
                self.x_min + (p.x - self.x_min) % self.width,
                self.y_min + (p.y - self.y_min) % self.height,
            )
        return Vec2(
            _reflect(p.x, self.x_min, self.x_max),
            _reflect(p.y, self.y_min, self.y_max),
        )


def _reflect(v: float, lo: float, hi: float) -> float:
    """Fold ``v`` into ``[lo, hi]`` by mirror reflection at the walls."""
    span = hi - lo
    # Map into a 2*span sawtooth, then mirror the upper half.
    t = (v - lo) % (2.0 * span)
    return lo + (t if t <= span else 2.0 * span - t)


class Trajectory:
    """Lazily evaluated piecewise trajectory of one node.

    Legs are drawn from the model on demand and memoized, so two
    evaluations at the same time always agree (determinism for replay).
    A cursor holds the leg of the last query: a query inside that leg is
    O(1), one outside it (the next leg, or back in time) binary-searches
    the memoized legs.
    """

    def __init__(
        self,
        start: Vec2,
        model: MobilityModel,
        rng: np.random.Generator,
        bounds: Optional[Bounds] = None,
        t0: float = 0.0,
    ) -> None:
        self.model = model
        self.bounds = bounds
        self._rng = rng
        self._t0 = t0
        # Memoized legs: (leg_start_time, start_position, leg).
        self._legs: list[tuple[float, Vec2, MobilityLeg]] = []
        self._horizon = t0
        self._next_start = self._constrain(start)
        # The leg of the last query, with its end: (start, end, start
        # position, leg).  Empty at first, so the first query misses.
        self._cursor: tuple = (t0, t0, None, None)

    def _constrain(self, p: Vec2) -> Vec2:
        b = self.bounds
        if b is None or b.contains(p):
            return p
        return b.apply(p)

    def _extend_to(self, t: float) -> None:
        while self._horizon <= t:
            leg = self.model.next_leg(self._rng, self._next_start)
            if leg.duration <= 0:
                raise ConfigurationError(
                    f"mobility model {type(self.model).__name__} produced a "
                    "zero-duration leg"
                )
            self._legs.append((self._horizon, self._next_start, leg))
            end = self._constrain(leg.position_at(self._next_start, leg.duration))
            self._horizon += leg.duration
            self._next_start = end

    def position_at(self, t: float) -> Vec2:
        """Node position at emulation time ``t`` (>= trajectory start)."""
        if t >= self._horizon:
            self._extend_to(t)
        leg_start, leg_end, start_pos, leg = self._cursor
        if not leg_start <= t < leg_end:
            if t < self._t0:
                raise ConfigurationError(
                    f"time {t} precedes trajectory start {self._t0}"
                )
            # The last leg starting at or before t; it ends where the
            # next one starts (the horizon grew by its duration).
            i = bisect_right(self._legs, t, key=lambda entry: entry[0]) - 1
            leg_start, start_pos, leg = self._legs[i]
            leg_end = leg_start + leg.duration
            self._cursor = leg_start, leg_end, start_pos, leg
        return self._constrain(leg.position_at(start_pos, t - leg_start))

    def sample(self, t_start: float, t_end: float, step: float) -> list[Vec2]:
        """Positions at ``t_start, t_start+step, …, <= t_end`` (inclusive)."""
        if step <= 0:
            raise ConfigurationError(f"step must be positive: {step}")
        times = np.arange(t_start, t_end + step * 1e-9, step)
        return [self.position_at(float(t)) for t in times]

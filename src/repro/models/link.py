"""Link models: packet loss, bandwidth, and delay (paper §4.3.2).

A link is "normally modeled as three parameters: packet loss, bandwidth,
and delay" [5].  PoEm's revisions, all GUI-configurable (here:
constructor-configurable):

**Packet loss** — piecewise linear in distance ``r`` from the sender
(derived from [6])::

    P(r) = P0                      for r <= D0
    P(r) = Kp * (r - D0) + P0      for r >  D0,   Kp = (P1 - P0) / (R - D0)

so loss ramps from the floor ``P0`` at distance ``D0`` up to ``P1`` at the
radio range ``R``.  Setting ``P1 == P0`` recovers the constant model.

**Bandwidth** — Gaussian in distance (distinct from [5]'s discrete steps)::

    B(r) = M * exp(-Kb * r²),      Kb = (ln M - ln m) / R²

so ``B(0) = M`` (peak) and ``B(R) = m`` (edge).  ``m == M`` recovers the
constant model.

**Delay** — the propagation/processing component added on top of the
serialization time ``size / bandwidth`` in the forward-time formula (§3.2
Step 3)::

    t_forward = t_receipt + delay + packet_size / bandwidth

Units: distances in the paper's abstract "(unit)", bandwidth in bits/s,
delay in seconds, sizes in bits.

The models hold parameters and evaluate them; they decide nothing.  Step 3
itself, the drop draw and the forward time, is computed in one place:
:meth:`repro.core.neighbor.Fanout.forward`, over a row plan built once
from the ``*_array`` forms, for unicasts and broadcasts alike (so the
Gaussian bandwidth's ``exp`` is always numpy's).  The scalar
``loss_probability`` / ``bandwidth`` / ``delay`` are the reference the
array forms are tested against.  Every parameter must be finite, so
every forward time is a number no earlier than its receipt time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "PacketLossModel",
    "BandwidthModel",
    "DelayModel",
    "LinkModel",
    "DEFAULT_LINK",
]


@dataclass(frozen=True, slots=True)
class PacketLossModel:
    """Piecewise-linear loss probability vs distance.

    Parameters mirror the paper exactly: ``p0`` (floor), ``p1`` (value at
    range), ``d0`` (knee distance), ``radio_range`` (``R``).  Table 3 uses
    ``P0=0.1, P1=0.9, D0=50, R=200``.
    """

    p0: float = 0.0
    p1: float = 0.0
    d0: float = 0.0
    radio_range: float = 1.0

    def __post_init__(self) -> None:
        for name, v in (("p0", self.p0), ("p1", self.p1)):
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must be in [0,1], got {v}")
        if self.p1 < self.p0:
            raise ConfigurationError(
                f"p1 ({self.p1}) must be >= p0 ({self.p0}): loss cannot "
                "decrease with distance"
            )
        if not (math.isfinite(self.d0) and self.d0 >= 0):
            raise ConfigurationError(
                f"d0 must be finite and non-negative, got {self.d0}"
            )
        if not (math.isfinite(self.radio_range) and self.radio_range > 0):
            raise ConfigurationError(
                f"radio_range must be finite and positive, got "
                f"{self.radio_range}"
            )
        if self.d0 > self.radio_range and self.p1 != self.p0:
            raise ConfigurationError(
                f"d0 ({self.d0}) beyond radio_range ({self.radio_range}) "
                "leaves no ramp region"
            )

    @property
    def is_constant(self) -> bool:
        """The paper's constant special case, ``P1 == P0``."""
        return self.p1 == self.p0

    @property
    def kp(self) -> float:
        """Ramp slope ``Kp = (P1 - P0) / (R - D0)`` (0 for constant model)."""
        if self.is_constant:
            return 0.0
        return (self.p1 - self.p0) / (self.radio_range - self.d0)

    def loss_probability(self, r: float) -> float:
        """Loss probability at distance ``r``, clamped to ``[p0, p1]``.

        The clamp at ``p1`` covers ``r`` slightly beyond ``R`` (a packet
        already in flight when its receiver drifted just out of range).
        """
        if r < 0:
            raise ConfigurationError(f"distance must be non-negative: {r}")
        if r <= self.d0:
            return self.p0
        return min(self.p0 + self.kp * (r - self.d0), self.p1)

    def loss_probability_array(self, r: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`loss_probability` (the row plan's form)."""
        r = np.asarray(r, dtype=float)
        return np.clip(self.p0 + self.kp * np.maximum(r - self.d0, 0.0),
                       self.p0, self.p1)


@dataclass(frozen=True, slots=True)
class BandwidthModel:
    """Gaussian bandwidth-vs-distance: ``B(r) = M exp(-Kb r²)``.

    ``peak`` is ``M`` (bits/s at distance 0), ``edge`` is ``m`` (bits/s at
    the radio range ``R``).  ``edge == peak`` recovers the constant model.
    """

    peak: float
    edge: Optional[float] = None
    radio_range: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.peak) and self.peak > 0):
            raise ConfigurationError(
                f"peak bandwidth must be finite and positive: {self.peak}"
            )
        edge = self.peak if self.edge is None else self.edge
        object.__setattr__(self, "edge", edge)
        if not (math.isfinite(edge) and edge > 0):
            raise ConfigurationError(
                f"edge bandwidth must be finite and positive: {edge}"
            )
        if edge > self.peak:
            raise ConfigurationError(
                f"edge bandwidth ({edge}) cannot exceed peak ({self.peak})"
            )
        if not (math.isfinite(self.radio_range) and self.radio_range > 0):
            raise ConfigurationError(
                f"radio_range must be finite and positive: {self.radio_range}"
            )

    @property
    def is_constant(self) -> bool:
        return self.edge == self.peak

    @property
    def kb(self) -> float:
        """``Kb = (ln M - ln m) / R²`` (0 for the constant model)."""
        if self.is_constant:
            return 0.0
        return (math.log(self.peak) - math.log(self.edge)) / (
            self.radio_range**2
        )

    def bandwidth(self, r: float) -> float:
        """Bandwidth in bits/s at distance ``r`` (never below ``edge``)."""
        if r < 0:
            raise ConfigurationError(f"distance must be non-negative: {r}")
        if self.is_constant:
            return self.peak
        return max(self.peak * math.exp(-self.kb * r * r), self.edge)

    def bandwidth_array(self, r: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`bandwidth`."""
        r = np.asarray(r, dtype=float)
        if self.is_constant:
            return np.full_like(r, self.peak)
        return np.maximum(self.peak * np.exp(-self.kb * r * r), self.edge)


@dataclass(frozen=True, slots=True)
class DelayModel:
    """Fixed plus distance-proportional delay (seconds).

    ``delay(r) = base + per_unit * r``.  The paper treats delay as one
    configurable parameter; the optional distance term lets larger scenes
    model propagation without a separate model class.
    """

    base: float = 0.0
    per_unit: float = 0.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v >= 0
                   for v in (self.base, self.per_unit)):
            raise ConfigurationError(
                "delay components must be finite and non-negative: "
                f"{self.base}, {self.per_unit}"
            )

    def delay(self, r: float) -> float:
        if r < 0:
            raise ConfigurationError(f"distance must be non-negative: {r}")
        return self.base + self.per_unit * r

    def delay_array(self, r: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`delay`."""
        r = np.asarray(r, dtype=float)
        if self.per_unit == 0.0:
            return np.full_like(r, self.base)
        return self.base + self.per_unit * r


@dataclass(frozen=True, slots=True)
class LinkModel:
    """The full per-link model bundle used by the forwarding engine.

    One :class:`LinkModel` is attached per radio (so different channels can
    have different characteristics, e.g. a long-range low-rate radio plus a
    short-range high-rate one — the multi-radio motivation [12]).
    """

    loss: PacketLossModel = field(default_factory=PacketLossModel)
    bandwidth: BandwidthModel = field(
        default_factory=lambda: BandwidthModel(peak=11e6)
    )
    delay: DelayModel = field(default_factory=DelayModel)


DEFAULT_LINK = LinkModel()
"""Lossless, constant 11 Mbps (802.11b-era), zero delay — a benign default."""

"""The overload-resilience plane: admission control + graceful degradation.

The paper's only nod to oversubscription is that scheduling jitter grows
with "overload of server computation" — the emulator silently leaves its
validity envelope.  Lochin et al. (PAPERS.md) argue an emulator must
*know and report* when that happens; this module is the knowing half.

:class:`OverloadController` is a small state machine fed by the scan
path: every flush reports the worst scheduler lag of its batch plus the
current schedule depth.  An EWMA of the lag, together with depth as a
fraction of the schedule capacity, classifies the run into one of three
states::

    NOMINAL ──escalate──▶ PRESSURED ──escalate──▶ SATURATED
       ◀──recover (hysteresis)──┘ ◀──recover──────────┘

Escalation is immediate (a saturated server must shed *now*); recovery
steps down **one level at a time** after ``recovery_observations``
consecutive quiet observations, so a bursty load cannot flap the
controller.  Each state sheds the lowest-value work first:

* ``PRESSURED`` — trace sampling off, modest fire-window batching;
* ``SATURATED`` — additionally: per-packet delivery records coalesced
  into counters, frames already late by more than the shed horizon
  dropped with the dedicated ``deadline-shed`` cause, and new ingest
  shed at the door once the schedule passes the admission depth.

The controller itself is deployment-agnostic and pure (injected
``time_fn``, no I/O): the owning server wires ``on_transition`` to the
log/record/telemetry planes.  :class:`DeadlineAccounting` is the
companion bookkeeping: every delivery lands in an on-time / late /
missed bucket against a configurable lag budget.  :func:`fidelity_verdict`
is the one rule that turns buckets and states into the run's verdict —
live in ``health()``, offline in ``poem stats`` / ``poem analyze``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import PoEmError

if TYPE_CHECKING:
    from .recording import RunDataset

__all__ = [
    "OverloadState",
    "OverloadConfig",
    "OverloadController",
    "DeadlineAccounting",
    "MISS_FACTOR",
    "fidelity_verdict",
    "degraded_intervals",
]

MISS_FACTOR = 10.0
"""A delivery later than this many lag budgets is a *miss*; the same
factor escalates a forensics lag warning to critical."""


class OverloadState:
    """The controller's three load regimes (ordered by severity)."""

    NOMINAL = "nominal"
    PRESSURED = "pressured"
    SATURATED = "saturated"

    ALL = (NOMINAL, PRESSURED, SATURATED)
    SEVERITY = {NOMINAL: 0, PRESSURED: 1, SATURATED: 2}


_ORDER = OverloadState.ALL
_SEV = OverloadState.SEVERITY


@dataclass(frozen=True)
class OverloadConfig:
    """Tuning knobs of the overload controller (see docs/overload.md).

    All lag thresholds derive from ``lag_budget`` so one number moves
    the whole envelope: a delivery within the budget is *on time*, an
    EWMA beyond it is *pressure*, beyond ``saturate_factor`` times it is
    *saturation*, and an individual frame already ``shed_lag_factor``
    budgets late is not worth delivering at all.
    """

    lag_budget: float = 0.010
    """On-time threshold (s) for a single delivery; anchors everything."""

    pressure_factor: float = 1.0
    """EWMA lag ≥ ``pressure_factor × lag_budget`` ⇒ at least PRESSURED."""

    saturate_factor: float = 5.0
    """EWMA lag ≥ ``saturate_factor × lag_budget`` ⇒ SATURATED."""

    shed_lag_factor: float = 10.0
    """A frame late by more than this many budgets is shed (SATURATED)."""

    depth_pressured: float = 0.5
    """Schedule depth as a capacity fraction ⇒ at least PRESSURED
    (ignored when the schedule is unbounded)."""

    depth_saturated: float = 0.9
    """Schedule depth as a capacity fraction ⇒ SATURATED."""

    admission_fraction: float = 0.8
    """While SATURATED, new ingest is shed at the door once depth
    reaches this capacity fraction — backpressure *before* the schedule
    overflows."""

    ewma_alpha: float = 0.25
    """EWMA smoothing weight for new lag observations."""

    recovery_observations: int = 5
    """Consecutive quiet observations required to step down one level."""

    fire_window_pressured: float = 0.001
    """Fire-window batching (s) under PRESSURED: near-due entries fire
    up to this much early, amortizing wakeups."""

    fire_window_saturated: float = 0.005
    """Fire-window batching (s) under SATURATED."""

    def __post_init__(self) -> None:
        if self.lag_budget <= 0.0:
            raise PoEmError(
                f"lag_budget must be positive, got {self.lag_budget}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise PoEmError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if self.recovery_observations < 1:
            raise PoEmError(
                "recovery_observations must be >= 1, got "
                f"{self.recovery_observations}"
            )
        for name in ("pressure_factor", "saturate_factor",
                     "shed_lag_factor"):
            if getattr(self, name) <= 0.0:
                raise PoEmError(f"{name} must be positive")
        if self.saturate_factor < self.pressure_factor:
            raise PoEmError(
                "saturate_factor must be >= pressure_factor"
            )
        for name in ("depth_pressured", "depth_saturated",
                     "admission_fraction"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise PoEmError(
                    f"{name} must be a fraction in (0, 1], got {v}"
                )
        for name in ("fire_window_pressured", "fire_window_saturated"):
            if getattr(self, name) < 0.0:
                raise PoEmError(f"{name} must be >= 0")


class OverloadController:
    """EWMA-lag + depth state machine driving graceful degradation.

    Thread model: :meth:`observe` runs on the thread that flushes; the
    degradation properties (``fire_window``, ``shed_horizon``,
    ``admission_limit``, ...) are read lock-free, possibly from other
    threads (the profiler, ``health()``) — reading the current state
    string is atomic, and every consumer tolerates a
    one-observation-stale answer.  ``on_transition`` is
    invoked *outside* the controller lock, so owners may log/record from
    it without lock-order constraints.
    """

    def __init__(
        self,
        config: Optional[OverloadConfig] = None,
        *,
        capacity: Optional[int] = None,
        time_fn: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str, dict], None]] = None,
    ) -> None:
        self.config = config if config is not None else OverloadConfig()
        self.capacity = capacity
        self.on_transition = on_transition
        self._time_fn = time_fn
        self._lock = threading.Lock()
        self._state = OverloadState.NOMINAL
        self._worst = OverloadState.NOMINAL
        self._ewma = 0.0
        self._depth = 0
        self._quiet = 0
        self._since = time_fn()
        self._time_in = {s: 0.0 for s in OverloadState.ALL}
        self.transitions = 0
        self.shed_total = 0
        self.records_coalesced = 0
        cfg = self.config
        self._pressured_lag = cfg.lag_budget * cfg.pressure_factor
        self._saturated_lag = cfg.lag_budget * cfg.saturate_factor
        self._shed_horizon = cfg.lag_budget * cfg.shed_lag_factor
        if capacity is not None:
            self._depth_pressured: Optional[int] = max(
                int(capacity * cfg.depth_pressured), 1
            )
            self._depth_saturated: Optional[int] = max(
                int(capacity * cfg.depth_saturated), 1
            )
            self._admission_limit: Optional[int] = max(
                int(capacity * cfg.admission_fraction), 1
            )
        else:
            self._depth_pressured = None
            self._depth_saturated = None
            self._admission_limit = None
        self._m_transitions = None

    # -- classification ------------------------------------------------------

    def _classify(self, ewma: float, depth: int) -> str:
        if ewma >= self._saturated_lag or (
            self._depth_saturated is not None
            and depth >= self._depth_saturated
        ):
            return OverloadState.SATURATED
        if ewma >= self._pressured_lag or (
            self._depth_pressured is not None
            and depth >= self._depth_pressured
        ):
            return OverloadState.PRESSURED
        return OverloadState.NOMINAL

    def observe(self, lag: float, depth: int) -> str:
        """Fold one flush observation; returns the (possibly new) state.

        ``lag`` is the worst scheduler lag of the flushed batch (0 for
        an idle flush — idle observations are how the controller steps
        back toward NOMINAL after a burst).
        """
        if not math.isfinite(lag):
            lag = self._shed_horizon  # a broken stamp reads as overload
        elif lag < 0.0:
            lag = 0.0
        event: Optional[tuple[str, str, dict]] = None
        with self._lock:
            self._ewma += self.config.ewma_alpha * (lag - self._ewma)
            self._depth = depth
            target = self._classify(self._ewma, depth)
            current = self._state
            if _SEV[target] > _SEV[current]:
                event = self._transition_locked(target)
            elif _SEV[target] < _SEV[current]:
                self._quiet += 1
                if self._quiet >= self.config.recovery_observations:
                    # Hysteresis: one severity level per recovery span.
                    event = self._transition_locked(
                        _ORDER[_SEV[current] - 1]
                    )
            else:
                self._quiet = 0
            state = self._state
        if event is not None:
            self._notify(*event)
        return state

    def _transition_locked(self, new: str) -> tuple[str, str, dict]:
        old = self._state
        now = self._time_fn()
        self._time_in[old] += max(now - self._since, 0.0)
        self._since = now
        self._state = new
        if _SEV[new] > _SEV[self._worst]:
            self._worst = new
        self._quiet = 0
        self.transitions += 1
        return old, new, {
            "lag_ewma": self._ewma,
            "depth": self._depth,
            "t": now,
        }

    def _notify(self, old: str, new: str, info: dict) -> None:
        if self._m_transitions is not None:
            self._m_transitions.labels(new).inc()
        if self.on_transition is not None:
            self.on_transition(old, new, info)

    # -- shed bookkeeping ----------------------------------------------------

    def note_shed(self, n: int = 1) -> None:
        """Count entries dropped with the ``deadline-shed`` cause."""
        with self._lock:
            self.shed_total += n

    def note_coalesced(self, n: int = 1) -> None:
        """Count delivered frames whose per-packet records were folded
        into this counter instead of being written (SATURATED only)."""
        with self._lock:
            self.records_coalesced += n

    # -- degradation policy (lock-free reads from the hot path) ---------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def severity(self) -> int:
        return _SEV[self._state]

    @property
    def lag_ewma(self) -> float:
        return self._ewma

    @property
    def allow_tracing(self) -> bool:
        """Trace sampling is the first work shed: NOMINAL only."""
        return self._state == OverloadState.NOMINAL

    @property
    def coalesce_records(self) -> bool:
        """Per-delivery records collapse to counters while SATURATED."""
        return self._state == OverloadState.SATURATED

    @property
    def fire_window(self) -> float:
        state = self._state
        if state == OverloadState.SATURATED:
            return self.config.fire_window_saturated
        if state == OverloadState.PRESSURED:
            return self.config.fire_window_pressured
        return 0.0

    @property
    def shed_horizon(self) -> Optional[float]:
        """Lag beyond which a due frame is shed (None unless SATURATED)."""
        if self._state == OverloadState.SATURATED:
            return self._shed_horizon
        return None

    @property
    def admission_limit(self) -> Optional[int]:
        """Schedule depth at which new ingest is shed at the door
        (None unless SATURATED, or when the schedule is unbounded)."""
        if self._state == OverloadState.SATURATED:
            return self._admission_limit
        return None

    # -- reporting -----------------------------------------------------------

    def _accumulated_locked(self, state: str) -> float:
        total = self._time_in[state]
        if self._state == state:
            total += max(self._time_fn() - self._since, 0.0)
        return total

    def degraded_seconds(self) -> float:
        """Total time spent outside NOMINAL (monotone non-decreasing)."""
        with self._lock:
            return (
                self._accumulated_locked(OverloadState.PRESSURED)
                + self._accumulated_locked(OverloadState.SATURATED)
            )

    def snapshot(self) -> dict:
        """JSON-friendly summary for ``health()`` and the run summary."""
        with self._lock:
            saturated = self._accumulated_locked(OverloadState.SATURATED)
            return {
                "state": self._state,
                "worst": self._worst,
                "lag_ewma": self._ewma,
                "lag_budget": self.config.lag_budget,
                "depth": self._depth,
                "transitions": self.transitions,
                "shed": self.shed_total,
                "coalesced": self.records_coalesced,
                "degraded_seconds": (
                    self._accumulated_locked(OverloadState.PRESSURED)
                    + saturated
                ),
                "saturated_seconds": saturated,
            }

    def bind_telemetry(self, registry) -> None:
        """Register the overload metric catalog on an obs registry."""
        registry.gauge_fn(
            "poem_overload_severity",
            "Overload controller state (0 nominal, 1 pressured, "
            "2 saturated)",
            lambda: self.severity,
        )
        registry.gauge_fn(
            "poem_overload_lag_ewma_seconds",
            "EWMA of per-flush worst scheduler lag feeding the controller",
            lambda: self._ewma,
        )
        registry.counter_fn(
            "poem_deadline_shed_total",
            "Frames dropped with the deadline-shed cause under saturation",
            lambda: self.shed_total,
        )
        registry.counter_fn(
            "poem_records_coalesced_total",
            "Delivered frames whose per-packet records were coalesced "
            "into counters under saturation",
            lambda: self.records_coalesced,
        )
        registry.counter_fn(
            "poem_overload_degraded_seconds_total",
            "Cumulative seconds spent outside the NOMINAL state",
            self.degraded_seconds,
        )
        self._m_transitions = registry.counter(
            "poem_overload_transitions_total",
            "Overload controller state transitions, by destination state",
            labels=("to",),
        )


class DeadlineAccounting:
    """On-time / late / missed buckets for every delivery (Step 5-6).

    ``lag ≤ budget`` is on time, ``lag ≤ MISS_FACTOR × budget`` is late,
    anything beyond is a miss.  Counters are bare ints bumped from the
    delivery path (single scan thread per deployment); readers tolerate
    a torn-by-one snapshot.
    """

    __slots__ = ("budget", "on_time", "late", "missed")

    def __init__(self, budget: float = 0.010) -> None:
        if budget <= 0.0:
            raise PoEmError(f"lag budget must be positive, got {budget}")
        self.budget = budget
        self.on_time = 0
        self.late = 0
        self.missed = 0

    def note(self, lag: float) -> None:
        if lag <= self.budget:
            self.on_time += 1
        elif lag <= self.budget * MISS_FACTOR:
            self.late += 1
        else:
            self.missed += 1

    @property
    def total(self) -> int:
        return self.on_time + self.late + self.missed

    @property
    def miss_rate(self) -> float:
        """Fraction of deliveries beyond the miss threshold."""
        total = self.total
        return self.missed / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "budget": self.budget,
            "on_time": self.on_time,
            "late": self.late,
            "missed": self.missed,
        }


def fidelity_verdict(
    late: int, missed: int, shed: int, worst_state: str
) -> str:
    """Did the run stay in real-time territory?

    ``"overloaded"`` — deadlines missed, frames shed, or the controller
    ever SATURATED: the numbers describe an emulator that fell behind
    real time; ``"degraded"`` — late deliveries, or the controller ever
    PRESSURED; ``"real-time"`` otherwise.  ``worst_state`` is the most
    severe :class:`OverloadState` the run reached.
    """
    if shed or missed or worst_state == OverloadState.SATURATED:
        return "overloaded"
    if late or worst_state == OverloadState.PRESSURED:
        return "degraded"
    return "real-time"


def degraded_intervals(
    dataset: "RunDataset",
) -> list[tuple[float, float, str]]:
    """``(start, end, worst_state)`` intervals a recorded run spent
    outside NOMINAL.

    Reconstructed from the ``overload-state`` scene events the owning
    server records on every controller transition.  An interval still
    open at the last event is closed at the run's end stamp.
    """
    events = sorted(
        (e for e in dataset.scene_events if e.kind == "overload-state"),
        key=lambda e: e.time,
    )
    out: list[tuple[float, float, str]] = []
    start: Optional[float] = None
    worst = OverloadState.NOMINAL
    for event in events:
        to = str(event.details.get("to", OverloadState.NOMINAL))
        if _SEV.get(to, 0) > 0:
            if start is None:
                start = event.time
                worst = to
            elif _SEV.get(to, 0) > _SEV.get(worst, 0):
                worst = to
        elif start is not None:
            out.append((start, event.time, worst))
            start = None
            worst = OverloadState.NOMINAL
    if start is not None:
        out.append((start, max(dataset.time_range()[1], start), worst))
    return out

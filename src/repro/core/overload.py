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
steps down **one level at a time** after :data:`RECOVERY_OBSERVATIONS`
consecutive quiet observations, so a bursty load cannot flap the
controller.  Each state sheds the lowest-value work first:

* ``PRESSURED`` — trace sampling off;
* ``SATURATED`` — additionally: frames already late by more than the
  shed horizon dropped with the dedicated ``deadline-shed`` cause, and
  new ingest shed at the door once the schedule passes the admission
  depth.  Every delivery is still recorded.

The lag budget is the plane's one setting: every lag threshold is a
fixed multiple of it and every depth threshold a fixed fraction of the
schedule capacity (the module constants below, see docs/overload.md).

The controller itself is deployment-agnostic and pure (injected
``time_fn``, no I/O): the owning server wires ``on_transition`` to the
log/record/telemetry planes.  :class:`DeadlineAccounting` is the
companion bookkeeping: every delivery lands in an on-time / late /
missed bucket against the lag budget.  :func:`fidelity_verdict`
is the one rule that turns buckets and states into the run's verdict —
live in ``health()``, offline in ``poem stats`` / ``poem analyze``.
"""

from __future__ import annotations

import math
import threading
import time
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import PoEmError

if TYPE_CHECKING:
    from .recording import RunDataset

__all__ = [
    "OverloadState",
    "OverloadController",
    "DeadlineAccounting",
    "DEFAULT_LAG_BUDGET",
    "MISS_FACTOR",
    "fidelity_verdict",
    "degraded_intervals",
]

DEFAULT_LAG_BUDGET = 0.010
"""On-time threshold (s) for a single delivery; anchors everything."""

MISS_FACTOR = 10.0
"""A delivery later than this many lag budgets is a *miss*; a SATURATED
flush sheds such a frame instead of delivering it, and the same factor
escalates a forensics lag warning to critical."""

SATURATE_FACTOR = 5.0
"""EWMA lag ≥ this many budgets ⇒ SATURATED (≥ one budget ⇒ PRESSURED)."""

DEPTH_PRESSURED = 0.5
"""Schedule depth as a capacity fraction ⇒ at least PRESSURED (ignored
when the schedule is unbounded)."""

DEPTH_SATURATED = 0.9
"""Schedule depth as a capacity fraction ⇒ SATURATED."""

ADMISSION_FRACTION = 0.8
"""While SATURATED, new ingest is shed at the door once depth reaches
this capacity fraction — backpressure *before* the schedule overflows."""

EWMA_ALPHA = 0.25
"""EWMA smoothing weight for new lag observations."""

RECOVERY_OBSERVATIONS = 5
"""Consecutive quiet observations required to step down one level."""


class OverloadState:
    """The controller's three load regimes (ordered by severity)."""

    NOMINAL = "nominal"
    PRESSURED = "pressured"
    SATURATED = "saturated"

    ALL = (NOMINAL, PRESSURED, SATURATED)
    SEVERITY = {NOMINAL: 0, PRESSURED: 1, SATURATED: 2}


_ORDER = OverloadState.ALL
_SEV = OverloadState.SEVERITY


class OverloadController:
    """EWMA-lag + depth state machine driving graceful degradation.

    Thread model: :meth:`observe` runs on the thread that flushes; the
    degradation properties (``allow_tracing``, ``shed_horizon``,
    ``admission_limit``, ...) are read lock-free, possibly from other
    threads (the profiler, ``health()``) — reading the current state
    string is atomic, and every consumer tolerates a
    one-observation-stale answer.  ``on_transition`` is
    invoked *outside* the controller lock, so owners may log/record from
    it without lock-order constraints.
    """

    def __init__(
        self,
        lag_budget: float = DEFAULT_LAG_BUDGET,
        *,
        capacity: Optional[int] = None,
        time_fn: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str, dict], None]] = None,
    ) -> None:
        if lag_budget <= 0.0:
            raise PoEmError(f"lag_budget must be positive, got {lag_budget}")
        self.lag_budget = lag_budget
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
        self._saturated_lag = lag_budget * SATURATE_FACTOR
        self._shed_horizon = lag_budget * MISS_FACTOR
        if capacity is not None:
            self._depth_pressured: Optional[int] = max(
                int(capacity * DEPTH_PRESSURED), 1
            )
            self._depth_saturated: Optional[int] = max(
                int(capacity * DEPTH_SATURATED), 1
            )
            self._admission_limit: Optional[int] = max(
                int(capacity * ADMISSION_FRACTION), 1
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
        if ewma >= self.lag_budget or (
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
            self._ewma += EWMA_ALPHA * (lag - self._ewma)
            self._depth = depth
            target = self._classify(self._ewma, depth)
            current = self._state
            if _SEV[target] > _SEV[current]:
                event = self._transition_locked(target)
            elif _SEV[target] < _SEV[current]:
                self._quiet += 1
                if self._quiet >= RECOVERY_OBSERVATIONS:
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
                "lag_budget": self.lag_budget,
                "depth": self._depth,
                "transitions": self.transitions,
                "shed": self.shed_total,
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
    anything beyond is a miss.  The engine notes a lag exactly where it
    builds a delivery record, so the live buckets and those
    ``build_report`` computes from the recording count the same
    deliveries; a shed frame is a drop and lands in no bucket.  Counters
    are bare ints bumped from the delivery path (single scan thread per
    deployment); readers tolerate a torn-by-one snapshot.
    """

    __slots__ = ("budget", "on_time", "late", "missed")

    def __init__(self, budget: float = DEFAULT_LAG_BUDGET) -> None:
        if budget <= 0.0:
            raise PoEmError(f"lag budget must be positive, got {budget}")
        self.budget = budget
        self.on_time = 0
        self.late = 0
        self.missed = 0

    def note(self, lag: float, n: int = 1) -> None:
        """Count ``n`` deliveries that lagged ``lag`` seconds."""
        if lag <= self.budget:
            self.on_time += n
        elif lag <= self.budget * MISS_FACTOR:
            self.late += n
        else:
            self.missed += n

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

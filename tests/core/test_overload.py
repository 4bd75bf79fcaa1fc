"""Unit tests for the overload controller and deadline accounting."""

from __future__ import annotations

import random

import pytest

from repro.core.overload import (
    EWMA_ALPHA,
    RECOVERY_OBSERVATIONS,
    DeadlineAccounting,
    OverloadController,
    OverloadState,
    fidelity_verdict,
)
from repro.errors import PoEmError

#: One observation of each lag moves the EWMA (from 0) by EWMA_ALPHA of
#: it: 0.02 s — past the 10 ms budget, under 5 budgets — and 0.25 s.
PRESSURING_LAG = 0.08
SATURATING_LAG = 1.0


def make_controller(capacity=None):
    clock = {"t": 0.0}

    def time_fn():
        clock["t"] += 0.001
        return clock["t"]

    return OverloadController(capacity=capacity, time_fn=time_fn)


def quiet(c, n):
    for _ in range(n):
        c.observe(0.0, 0)


# -- config validation -------------------------------------------------------

@pytest.mark.parametrize(
    "bad",
    [
        {"lag_budget": 0.0},
        {"lag_budget": -1.0},
    ],
)
def test_config_validation(bad):
    with pytest.raises(PoEmError):
        OverloadController(**bad)


# -- state machine -----------------------------------------------------------

def test_starts_nominal_with_full_shedding_off():
    c = make_controller()
    assert c.state == OverloadState.NOMINAL
    assert c.severity == 0
    assert c.allow_tracing
    assert c.shed_horizon is None
    assert c.admission_limit is None


def test_escalation_is_immediate():
    c = make_controller()
    assert c.observe(PRESSURING_LAG, 0) == OverloadState.PRESSURED
    assert c.observe(SATURATING_LAG, 0) == OverloadState.SATURATED
    assert c.transitions == 2


def test_pressured_sheds_tracing_and_batches():
    """PRESSURED sheds trace sampling, and nothing else: the harvest it
    batches stays exact (the controller has no fire window)."""
    c = make_controller()
    c.observe(PRESSURING_LAG, 0)
    assert c.state == OverloadState.PRESSURED
    assert not c.allow_tracing
    # PRESSURED does not yet shed frames.
    assert c.shed_horizon is None
    assert c.admission_limit is None


def test_saturated_engages_every_lever():
    c = make_controller(capacity=100)
    c.observe(SATURATING_LAG, 0)
    assert c.state == OverloadState.SATURATED
    assert not c.allow_tracing
    assert c.shed_horizon == pytest.approx(0.10)
    assert c.admission_limit == 80


def test_depth_alone_can_saturate():
    c = make_controller(capacity=100)
    assert c.observe(0.0, 95) == OverloadState.SATURATED
    assert c.lag_ewma == 0.0


def test_unbounded_schedule_ignores_depth():
    c = make_controller()
    assert c.observe(0.0, 10**9) == OverloadState.NOMINAL
    assert c.admission_limit is None


def test_recovery_requires_hysteresis_and_steps_one_level():
    # Depth drives the escalation, so the EWMA stays 0 and every later
    # observation at depth 0 is a quiet one.
    c = make_controller(capacity=100)
    c.observe(0.0, 95)
    assert c.state == OverloadState.SATURATED
    quiet(c, RECOVERY_OBSERVATIONS - 1)
    assert c.state == OverloadState.SATURATED  # not enough quiet obs
    quiet(c, 1)
    assert c.state == OverloadState.PRESSURED  # one level, not two
    quiet(c, RECOVERY_OBSERVATIONS - 1)
    assert c.state == OverloadState.PRESSURED
    quiet(c, 1)
    assert c.state == OverloadState.NOMINAL


def test_matching_observation_resets_quiet_streak():
    c = make_controller(capacity=100)
    c.observe(0.0, 60)  # PRESSURED on depth
    quiet(c, RECOVERY_OBSERVATIONS - 1)
    c.observe(0.0, 60)  # still pressured: streak resets
    quiet(c, RECOVERY_OBSERVATIONS - 1)
    assert c.state == OverloadState.PRESSURED
    quiet(c, 1)
    assert c.state == OverloadState.NOMINAL


def test_ewma_decays_to_recovery():
    c = make_controller()
    c.observe(SATURATING_LAG, 0)
    # 0.25 s decays by (1 - EWMA_ALPHA) per quiet observation and first
    # reads under 5 budgets on the 6th: hysteresis counts from there.
    quiet(c, 5 + RECOVERY_OBSERVATIONS - 1)
    assert c.state == OverloadState.SATURATED
    quiet(c, 1)
    assert c.state == OverloadState.PRESSURED
    for _ in range(100):
        if c.observe(0.0, 0) == OverloadState.NOMINAL:
            break
    assert c.state == OverloadState.NOMINAL


def test_non_finite_lag_reads_as_overload():
    # A broken stamp is observed as a lag of one shed horizon (0.1 s).
    c = make_controller()
    assert c.observe(float("nan"), 0) == OverloadState.PRESSURED
    assert c.lag_ewma == pytest.approx(EWMA_ALPHA * 0.1)
    c.observe(float("nan"), 0)
    assert c.observe(float("nan"), 0) == OverloadState.SATURATED
    c2 = make_controller()
    c2.observe(float("inf"), 0)
    assert c2.lag_ewma == pytest.approx(EWMA_ALPHA * 0.1)
    c3 = make_controller()
    assert c3.observe(-5.0, 0) == OverloadState.NOMINAL
    assert c3.lag_ewma == 0.0


def test_on_transition_called_outside_lock_with_info():
    seen = []

    def hook(old, new, info):
        # Re-entering a controller method proves the lock is not held.
        seen.append((old, new, info, c.snapshot()["state"]))

    c = OverloadController(on_transition=hook)
    c.observe(SATURATING_LAG, 7)
    assert len(seen) == 1
    old, new, info, snap_state = seen[0]
    assert (old, new) == (OverloadState.NOMINAL, OverloadState.SATURATED)
    assert info["depth"] == 7
    assert info["lag_ewma"] == pytest.approx(EWMA_ALPHA * SATURATING_LAG)
    assert snap_state == OverloadState.SATURATED


def test_time_accounting_and_snapshot():
    c = make_controller()
    c.observe(SATURATING_LAG, 0)
    snap = c.snapshot()
    assert set(snap) == {
        "state", "worst", "lag_ewma", "lag_budget", "depth",
        "transitions", "shed", "degraded_seconds", "saturated_seconds",
    }
    assert snap["state"] == OverloadState.SATURATED
    assert snap["lag_budget"] == 0.010
    assert snap["saturated_seconds"] >= 0.0
    assert snap["degraded_seconds"] >= snap["saturated_seconds"]
    c.note_shed(3)
    assert c.snapshot()["shed"] == 3


# -- property-style controller test (satellite) ------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_any_sequence_recovers_once_quiet_and_counters_monotone(seed):
    """Whatever lag/depth sequence the controller sees, a sufficiently
    long quiet period always brings it back to NOMINAL, and the shed /
    degraded-time counters never decrease along the way."""
    rng = random.Random(seed)
    c = OverloadController(capacity=rng.choice([None, 10, 1000]))
    prev_shed = prev_degraded = 0.0
    for _ in range(rng.randrange(20, 200)):
        lag = rng.choice(
            [0.0, rng.uniform(0.0, 0.005), rng.uniform(0.01, 0.2),
             rng.uniform(1.0, 100.0), float("inf")]
        )
        depth = rng.randrange(0, 2000)
        c.observe(lag, depth)
        if rng.random() < 0.3:
            c.note_shed(rng.randrange(1, 5))
        snap = c.snapshot()
        assert snap["shed"] >= prev_shed
        assert snap["degraded_seconds"] >= prev_degraded - 1e-9
        prev_shed = snap["shed"]
        prev_degraded = snap["degraded_seconds"]
    # The EWMA decays geometrically under quiet input, so a bounded
    # number of idle observations always reaches NOMINAL.
    for _ in range(2000):
        if c.observe(0.0, 0) == OverloadState.NOMINAL:
            break
    assert c.state == OverloadState.NOMINAL
    assert c.snapshot()["shed"] >= prev_shed


# -- deadline accounting -----------------------------------------------------

def test_deadline_buckets():
    d = DeadlineAccounting(budget=0.010)
    d.note(0.0)
    d.note(0.010)  # inclusive: on time
    d.note(0.011)  # late
    d.note(0.100)  # inclusive: late
    d.note(0.101)  # missed
    assert (d.on_time, d.late, d.missed) == (2, 2, 1)
    assert d.total == 5
    assert d.miss_rate == pytest.approx(0.2)
    assert d.as_dict() == {
        "budget": 0.010, "on_time": 2, "late": 2, "missed": 1,
    }


def test_deadline_accounting_validation():
    with pytest.raises(PoEmError):
        DeadlineAccounting(budget=0.0)
    assert DeadlineAccounting().miss_rate == 0.0


# -- the one fidelity rule ----------------------------------------------------

@pytest.mark.parametrize(
    "late, missed, shed, worst, verdict",
    [
        (0, 0, 0, OverloadState.NOMINAL, "real-time"),
        (1, 0, 0, OverloadState.NOMINAL, "degraded"),
        (0, 0, 0, OverloadState.PRESSURED, "degraded"),
        (0, 1, 0, OverloadState.NOMINAL, "overloaded"),
        (0, 0, 1, OverloadState.NOMINAL, "overloaded"),
        (0, 0, 0, OverloadState.SATURATED, "overloaded"),
        (5, 0, 0, OverloadState.SATURATED, "overloaded"),
        (5, 0, 0, OverloadState.PRESSURED, "degraded"),
    ],
)
def test_fidelity_verdict_table(late, missed, shed, worst, verdict):
    assert fidelity_verdict(late, missed, shed, worst) == verdict


def test_snapshot_remembers_the_worst_state():
    c = make_controller()
    assert c.snapshot()["worst"] == OverloadState.NOMINAL
    c.observe(0.0, 0)
    c.observe(SATURATING_LAG, 0)  # EWMA far past 5 budgets
    assert c.state == OverloadState.SATURATED
    for _ in range(100):
        if c.observe(0.0, 0) == OverloadState.NOMINAL:
            break
    assert c.state == OverloadState.NOMINAL
    assert c.snapshot()["worst"] == OverloadState.SATURATED

"""Unit tests for the thread-supervision layer (fault tolerance).

Covers :mod:`repro.core.supervision` in isolation — restart-on-crash,
backoff budget, clean exits, the registry's failure ledger — and then
the acceptance-required scenario: deliberately crashing a supervised
server loop and reading the damage out of ``PoEmServer.health()``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.supervision import (
    HealthRegistry,
    RestartPolicy,
    SupervisedThread,
    ThreadHealth,
)
from repro.core.tcpserver import PoEmServer
from repro.errors import SupervisionError

FAST = RestartPolicy(max_restarts=10, base=0.005, factor=1.5, cap=0.05,
                     jitter=0.0)


def wait_for(predicate, timeout=5.0, poll=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


class TestRestartPolicy:
    def test_delay_grows_and_caps(self):
        import random

        policy = RestartPolicy(base=0.1, factor=2.0, cap=0.5, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(i, rng) for i in range(5)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays[2] == pytest.approx(0.4)
        assert delays[3] == pytest.approx(0.5)  # capped
        assert delays[4] == pytest.approx(0.5)

    def test_jitter_is_deterministic_per_seed(self):
        import random

        policy = RestartPolicy(base=0.1, jitter=0.5)
        a = [policy.delay(i, random.Random("poem-scan")) for i in range(3)]
        b = [policy.delay(i, random.Random("poem-scan")) for i in range(3)]
        assert a == b


class TestSupervisedThread:
    def test_clean_exit_not_restarted(self):
        calls = []

        def target():
            calls.append(1)

        st = SupervisedThread("t-clean", target, policy=FAST).start()
        assert wait_for(lambda: not st.is_alive())
        assert calls == [1]
        assert st.failures == 0
        assert st.restarts == 0

    def test_flaky_target_restarts_until_healthy(self):
        """Crash twice, then run clean: supervision re-enters the loop."""
        attempts = []
        done = threading.Event()

        def target():
            attempts.append(1)
            if len(attempts) <= 2:
                raise RuntimeError(f"boom {len(attempts)}")
            done.set()

        st = SupervisedThread("t-flaky", target, policy=FAST).start()
        assert done.wait(5.0)
        assert wait_for(lambda: not st.is_alive())
        assert len(attempts) == 3
        assert st.failures == 2
        assert st.restarts == 2
        h = st.health()
        assert isinstance(h, ThreadHealth)
        assert h.last_error == "RuntimeError: boom 2"

    def test_restart_budget_exhausted(self):
        policy = RestartPolicy(max_restarts=3, base=0.001, cap=0.005,
                               jitter=0.0)
        attempts = []

        def target():
            attempts.append(1)
            raise ValueError("always fails")

        st = SupervisedThread("t-hopeless", target, policy=policy).start()
        assert wait_for(lambda: not st.is_alive())
        # Initial attempt + max_restarts retries, then it stays down.
        assert len(attempts) == 4
        assert st.failures == 4
        assert not st.health().alive

    def test_non_restartable_dies_once(self):
        attempts = []

        def target():
            attempts.append(1)
            raise RuntimeError("one-shot crash")

        st = SupervisedThread(
            "t-oneshot", target, restartable=False, policy=FAST
        ).start()
        assert wait_for(lambda: not st.is_alive())
        time.sleep(0.05)
        assert len(attempts) == 1
        assert st.failures == 1

    def test_should_run_false_suppresses_restart(self):
        attempts = []

        def target():
            attempts.append(1)
            raise RuntimeError("crash during shutdown")

        st = SupervisedThread(
            "t-shutdown", target, policy=FAST, should_run=lambda: False
        ).start()
        assert wait_for(lambda: not st.is_alive())
        time.sleep(0.05)
        assert len(attempts) == 1

    def test_stop_interrupts_backoff(self):
        policy = RestartPolicy(max_restarts=100, base=30.0, cap=30.0,
                               jitter=0.0)

        def target():
            raise RuntimeError("crash into a long backoff")

        st = SupervisedThread("t-backoff", target, policy=policy).start()
        assert wait_for(lambda: st.failures >= 1)
        t0 = time.monotonic()
        st.stop(timeout=5.0)
        assert time.monotonic() - t0 < 5.0
        assert not st.is_alive()

    def test_double_start_rejected(self):
        st = SupervisedThread("t-double", lambda: None, policy=FAST).start()
        with pytest.raises(SupervisionError):
            st.start()
        st.stop()

    def test_on_crash_hook_called_and_fenced(self):
        seen = []

        def hook(exc):
            seen.append(str(exc))
            raise RuntimeError("broken hook must not kill supervision")

        attempts = []
        def target():
            attempts.append(1)
            if len(attempts) == 1:
                raise ValueError("first")

        st = SupervisedThread(
            "t-hook", target, policy=FAST, on_crash=hook
        ).start()
        assert wait_for(lambda: not st.is_alive())
        assert seen == ["first"]
        assert len(attempts) == 2  # restarted despite the broken hook


class TestHealthRegistry:
    def test_spawn_registers_and_reports(self):
        reg = HealthRegistry()
        done = threading.Event()
        reg.spawn("worker", done.wait, policy=FAST)
        snap = reg.health()
        assert "worker" in snap["threads"]
        assert snap["threads"]["worker"]["alive"]
        done.set()

    def test_event_log_bounded(self):
        reg = HealthRegistry(max_events=4)
        for i in range(10):
            reg.note_failure("src", RuntimeError(f"e{i}"))
        events = reg.failures()
        assert len(events) == 4
        assert events[-1].error == "RuntimeError: e9"

    def test_duplicate_live_name_rejected(self):
        reg = HealthRegistry()
        done = threading.Event()
        reg.spawn("dup", done.wait, policy=FAST)
        with pytest.raises(SupervisionError):
            reg.spawn("dup", done.wait, policy=FAST)
        done.set()
        reg.stop_all()

    def test_stop_all_joins_everything(self):
        reg = HealthRegistry()
        stop = threading.Event()
        for i in range(3):
            reg.spawn(f"loop-{i}", stop.wait, policy=FAST)
        stop.set()
        reg.stop_all(timeout=2.0)
        assert wait_for(lambda: not any(
            t["alive"] for t in reg.health()["threads"].values()
        ))


class TestServerHealthUnderCrash:
    """Acceptance: crash a supervised server loop deliberately and read
    the diagnosis out of ``PoEmServer.health()``."""

    def test_mobility_crash_recorded_and_restarted(self):
        srv = PoEmServer(seed=0, mobility_tick=0.01)
        srv.start()
        try:
            # Sabotage one mobility tick: scene time is the loop's, so
            # poem-loop crashes once, the supervisor records it and
            # restarts the loop with backoff.
            real_advance = srv.scene.advance_time
            state = {"armed": True}

            def sabotaged(*args):
                if state["armed"]:
                    state["armed"] = False
                    raise RuntimeError("injected mobility crash")
                return real_advance(*args)

            srv.scene.advance_time = sabotaged
            assert wait_for(
                lambda: srv.health()["threads"]["poem-loop"]["failures"] >= 1
            )
            health = srv.health()
            loop = health["threads"]["poem-loop"]
            assert loop["last_error"] == (
                "RuntimeError: injected mobility crash"
            )
            assert any(
                f["thread"] == "poem-loop"
                and "injected mobility crash" in f["error"]
                for f in health["recent_failures"]
            )
            # The loop comes back (restart with backoff) and an idle
            # server keeps ticking the scene clock.
            assert wait_for(
                lambda: srv.health()["threads"]["poem-loop"]["alive"]
            )
            assert wait_for(
                lambda: srv.health()["threads"]["poem-loop"]["restarts"]
                >= 1
            )
            t_before = srv.scene.time
            assert wait_for(lambda: srv.scene.time > t_before)
        finally:
            srv.stop()

    def test_health_shape_is_complete(self):
        srv = PoEmServer(seed=0)
        srv.start()
        try:
            health = srv.health()
            assert health["running"] is True
            assert set(health["threads"]) == {"poem-loop"}
            assert health["threads"]["poem-loop"]["alive"]
            for key in ("clients", "quarantined", "engine",
                        "recent_failures", "time"):
                assert key in health
        finally:
            srv.stop()
            assert srv.health()["running"] is False

"""Thread supervision for the real-time server (fault-tolerance layer).

The paper's real-time deployment is "parallel multiple threads" (§3.2):
accept, per-client receivers and senders, the schedule scanner, and the
mobility ticker.  In the seed implementation any unhandled exception in
one of those threads died silently (daemon threads swallow tracebacks
after interpreter teardown) and the emulation froze without diagnosis —
the exact failure mode the OMNeT++ real-time-scheduler literature warns
about: an emulator must *notice* deadline overruns and dead loops, not
assume a healthy lab LAN.

Two pieces:

:class:`SupervisedThread`
    wraps a loop target; captures every crash, records it, and — for
    restartable loops — restarts the target with capped exponential
    backoff (deterministic per-thread jitter, so behaviour is
    reproducible under test).

:class:`HealthRegistry`
    the server-wide ledger: every supervised thread registers here, every
    failure is timestamped into a bounded event log, and ``health()``
    produces the JSON-friendly snapshot consumed by
    :meth:`repro.core.tcpserver.PoEmServer.health`, the stats pane and the
    operator console's ``health`` command.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import SupervisionError
from ..obs.logging import get_logger, log_event

_log = get_logger("supervision")

__all__ = [
    "RestartPolicy",
    "ThreadHealth",
    "SupervisedThread",
    "HealthRegistry",
]


@dataclass(frozen=True)
class RestartPolicy:
    """Capped exponential backoff for restartable loops.

    Restart ``n`` sleeps ``min(base * factor**n, cap)`` scaled by a
    deterministic jitter in ``[1, 1 + jitter)`` (seeded from the thread
    name, so two runs of the same server back off identically).
    """

    max_restarts: int = 5
    base: float = 0.05
    factor: float = 2.0
    cap: float = 2.0
    jitter: float = 0.25

    def delay(self, attempt: int, rng: random.Random) -> float:
        raw = min(self.base * (self.factor ** attempt), self.cap)
        return raw * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True)
class ThreadHealth:
    """One thread's row in the ``health()`` snapshot."""

    name: str
    alive: bool
    restartable: bool
    restarts: int
    failures: int
    last_error: Optional[str] = None
    last_error_time: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "alive": self.alive,
            "restartable": self.restartable,
            "restarts": self.restarts,
            "failures": self.failures,
            "last_error": self.last_error,
            "last_error_time": self.last_error_time,
        }


class SupervisedThread:
    """A daemon thread whose target is restarted (with backoff) on crash.

    ``target`` is a long-running loop; returning from it is a *clean*
    exit (no restart).  Raising is a crash: the exception is recorded in
    the registry and, when ``restartable`` and ``should_run()`` still
    holds, the target is re-entered after the policy's backoff.
    """

    def __init__(
        self,
        name: str,
        target: Callable[[], None],
        *,
        registry: Optional["HealthRegistry"] = None,
        restartable: bool = True,
        policy: Optional[RestartPolicy] = None,
        should_run: Optional[Callable[[], bool]] = None,
        on_crash: Optional[Callable[[BaseException], None]] = None,
    ) -> None:
        self.name = name
        self._target = target
        self._registry = registry
        self.restartable = restartable
        self.policy = policy if policy is not None else RestartPolicy()
        self._should_run = should_run
        self._on_crash = on_crash
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._rng = random.Random(name)
        self.restarts = 0
        self.failures = 0
        self.last_error: Optional[BaseException] = None
        self.last_error_time: Optional[float] = None
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SupervisedThread":
        if self._started:
            raise SupervisionError(f"thread {self.name!r} already started")
        self._started = True
        self._thread.start()
        return self

    def stop(self, timeout: float = 2.0) -> None:
        """Ask the supervisor to stop restarting and join the thread.

        The *target* must watch its own run condition (``should_run``);
        stop only guarantees no further restarts and interrupts any
        backoff sleep.
        """
        self._stop.set()
        if self._thread.is_alive() and threading.current_thread() is not self._thread:
            self._thread.join(timeout=timeout)

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def is_current(self) -> bool:
        """True when called *from* the supervised thread itself.

        Shutdown paths use this to avoid self-joins (e.g. a receiver
        thread tearing down its own client on EOF).
        """
        return threading.current_thread() is self._thread

    def join(self, timeout: Optional[float] = None) -> None:
        """Join the underlying thread (no-op from within itself)."""
        if not self.is_current():
            self._thread.join(timeout=timeout)

    # -- the supervision loop --------------------------------------------------

    def _run(self) -> None:
        attempt = 0
        while not self._stop.is_set():
            try:
                self._target()
                return  # clean exit
            except BaseException as exc:  # noqa: BLE001 — supervision boundary
                with self._lock:
                    self.failures += 1
                    self.last_error = exc
                    self.last_error_time = time.time()
                if self._registry is not None:
                    self._registry.note_failure(self.name, exc)
                if self._on_crash is not None:
                    try:
                        self._on_crash(exc)
                    # The hook runs at the supervision boundary: the
                    # original crash is already recorded above, and a
                    # broken crash hook must not kill the supervisor.
                    except Exception:  # poem: ignore[POEM005]
                        pass
                if not self.restartable:
                    return
                if self._should_run is not None and not self._should_run():
                    return  # owner is shutting down — crash is expected noise
                if attempt >= self.policy.max_restarts:
                    return  # restart budget exhausted; stays visible in health
                delay = self.policy.delay(attempt, self._rng)
                attempt += 1
                with self._lock:
                    self.restarts += 1
                log_event(
                    _log, "thread-restart",
                    thread=self.name, attempt=attempt,
                    delay=round(delay, 4),
                    error=f"{type(exc).__name__}: {exc}",
                )
                if self._stop.wait(delay):
                    return

    # -- introspection ------------------------------------------------------------

    def health(self) -> ThreadHealth:
        with self._lock:
            return ThreadHealth(
                name=self.name,
                alive=self.is_alive(),
                restartable=self.restartable,
                restarts=self.restarts,
                failures=self.failures,
                last_error=None if self.last_error is None
                else f"{type(self.last_error).__name__}: {self.last_error}",
                last_error_time=self.last_error_time,
            )


@dataclass(frozen=True)
class FailureEvent:
    """One recorded crash (kept in a bounded log, apart from its thread)."""

    time: float
    thread: str
    error: str


class HealthRegistry:
    """Ledger of supervised threads + a bounded failure-event log."""

    def __init__(self, *, max_events: int = 256) -> None:
        self._threads: dict[str, SupervisedThread] = {}
        self._events: deque[FailureEvent] = deque(maxlen=max_events)
        self._lock = threading.Lock()
        #: Monotonic crash count across all components (never trimmed —
        #: mirrors into ``poem_thread_failures_total``).
        self.failures_total = 0

    # -- registration ------------------------------------------------------------

    def spawn(
        self,
        name: str,
        target: Callable[[], None],
        **kwargs,
    ) -> SupervisedThread:
        """Create, register, and start a supervised thread."""
        st = SupervisedThread(name, target, registry=self, **kwargs)
        with self._lock:
            if name in self._threads and self._threads[name].is_alive():
                raise SupervisionError(
                    f"supervised thread {name!r} already registered and alive"
                )
            self._threads[name] = st
        st.start()
        return st

    # -- failure log ---------------------------------------------------------------

    def note_failure(self, source: str, exc: BaseException) -> None:
        """Record a crash from any server component (threads, handlers)."""
        with self._lock:
            self._events.append(
                FailureEvent(
                    time=time.time(),
                    thread=source,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            self.failures_total += 1
        log_event(
            _log, "component-failure",
            component=source, error=f"{type(exc).__name__}: {exc}",
        )

    def failures(self) -> list[FailureEvent]:
        with self._lock:
            return list(self._events)

    # -- aggregate views --------------------------------------------------------------

    def health(self) -> dict:
        """JSON-friendly snapshot of every registered thread + recent crashes."""
        with self._lock:
            threads = dict(self._threads)
            events = list(self._events)[-16:]
        return {
            "threads": {n: t.health().as_dict() for n, t in threads.items()},
            "recent_failures": [
                {"time": e.time, "thread": e.thread, "error": e.error}
                for e in events
            ],
        }

    def stop_all(self, timeout: float = 2.0) -> None:
        with self._lock:
            threads = list(self._threads.values())
        for t in threads:
            t._stop.set()
        for t in threads:
            t.stop(timeout=timeout)

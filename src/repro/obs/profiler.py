"""Continuous wall-clock sampling profiler: where every microsecond goes.

Metrics (PR 3) say *how much* work the emulator did and tracing says
*which packets* were slow; neither says which **functions** burned the
wall clock.  This module closes that gap with a dependency-free
sampling profiler in the flamegraph tradition:

* a sampler daemon (a :class:`~repro.core.supervision.SupervisedThread`,
  like every other background loop in the stack) wakes ~97 times a
  second — a prime-ish default rate so it cannot alias against 10/50/
  100 Hz periodic work — and walks ``sys._current_frames()``;
* every live thread's stack is folded into a bounded table of
  ``role;thread;frame;frame;… → count`` entries, with thread idents
  resolved to their :class:`~repro.core.supervision.SupervisedThread`
  names via :func:`threading.enumerate`, so a profile reads
  "poem-loop spent 41% of samples in ``engine.flush_wait``";
* :meth:`SamplingProfiler.collapsed` renders the table in the
  collapsed-stack format that ``flamegraph.pl`` and speedscope ingest
  directly, and :func:`summarize_folded` reduces a table to a
  per-thread self-time summary for consoles;
* the sampler **degrades with the overload plane exactly like
  tracing**: given an :class:`~repro.core.overload.OverloadController`,
  sampling pauses whenever the controller has left NOMINAL (its
  ``allow_tracing`` lever), so profiling overhead is the first thing
  shed when deadlines are at risk;
* a bounded ring of recent ``(wall time, thread, leaf frame)`` samples
  feeds the Chrome-trace timeline (:mod:`repro.obs.timeline`).

Cluster story: each shard worker's forwarding core runs its *own*
sampler — paused, like every core's, while that worker's overload
controller is out of NOMINAL — and ships its cumulative folded-stack
table in the sample every reply to the parent carries (the core's
health sections plus the shard fields,
:meth:`repro.cluster.worker._WorkerState.sample`); the parent
folds them through
:class:`ProfileMerger` — the same last-seen delta-merge idiom as
:class:`~repro.obs.metrics.SnapshotMerger`, baselines forgotten when
``stop()`` retires the workers — so one merged profile covers the whole
cluster, worker roles kept distinct by the ``role`` root frame.

Overhead model (see docs/observability.md): one sample costs one
``sys._current_frames()`` call plus a frame walk per live thread —
O(threads × depth) dict work, a few tens of microseconds.  At the
default 97 Hz that is well under 1% of one core; the CI bench
``test_profiler_overhead`` gates the measured ratio at ≤1.05×.

The module keeps one process-default profiler
(:func:`set_default`/:func:`get_default`) so operator surfaces (console
``profile``, ``GET /profile``) and the crash flight recorder can find
the running sampler without plumbing.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from typing import Any, Callable, Mapping, MutableMapping, Optional

from ..core.supervision import SupervisedThread

__all__ = [
    "SamplingProfiler",
    "ProfileMerger",
    "DEFAULT_HZ",
    "PROFILE_SCHEMA",
    "format_profile",
    "merge_folded",
    "set_default",
    "get_default",
]

PROFILE_SCHEMA = 1

#: Default sampling rate (Hz).  Deliberately *not* a round number: a
#: 100 Hz sampler phase-locks with 10 ms periodic loops and sees either
#: always-the-loop or never-the-loop; 97 drifts through them.
DEFAULT_HZ = 97.0

#: Stack-table entries above this bound fold into a per-thread
#: ``(other)`` leaf instead of growing the table (overload can make
#: stack shapes explode; the profiler must never be the leak).
DEFAULT_MAX_STACKS = 2048

#: Frames kept per stack (leaf-most survive; deep recursions truncate).
DEFAULT_MAX_DEPTH = 48


def _frame_label(frame: Any) -> str:
    """One stack frame as ``module.qualname`` (semicolon-safe: ``;`` is
    the folded-stack separator)."""
    code = frame.f_code
    mod = frame.f_globals.get("__name__", "?")
    func = getattr(code, "co_qualname", None) or code.co_name
    label = f"{mod}.{func}"
    return label.replace(";", ",") if ";" in label else label


class SamplingProfiler:
    """Wall-clock sampling profiler over ``sys._current_frames()``.

    ``role`` becomes the root frame of every folded stack, which is how
    merged cluster profiles keep parent and worker samples apart.  Pass
    an :class:`~repro.core.overload.OverloadController` as ``overload``
    and the sampler pauses (counting :attr:`paused`) whenever the
    controller has shed tracing — profiling is sacrificed before any
    emulation fidelity is.
    """

    def __init__(
        self,
        *,
        hz: float = DEFAULT_HZ,
        role: str = "parent",
        max_stacks: int = DEFAULT_MAX_STACKS,
        max_depth: int = DEFAULT_MAX_DEPTH,
        overload: Optional[Any] = None,
        ring_capacity: int = 512,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive: {hz}")
        self.hz = float(hz)
        self.role = str(role)
        self.max_stacks = max(int(max_stacks), 1)
        self.max_depth = max(int(max_depth), 1)
        self._overload = overload
        self._clock = clock
        self._lock = threading.Lock()
        #: cumulative local folded stacks: ``role;thread;…frames → count``
        self._stacks: dict[str, int] = {}
        #: folded stacks merged in from other processes (cluster workers)
        self._remote: dict[str, int] = {}
        self._merger = ProfileMerger(self._remote)
        #: recent samples for the timeline: (wall t, thread, leaf frame)
        self._ring: deque[tuple[float, str, str]] = deque(
            maxlen=max(int(ring_capacity), 1)
        )
        self.samples = 0  # sampling passes that captured frames
        self.paused = 0  # passes skipped because overload shed tracing
        self.errors = 0  # passes that raised (never propagate)
        self.dropped_stacks = 0  # samples folded into (other) by the bound
        self._busy_seconds = 0.0
        self.started_at: Optional[float] = None
        self._thread: Optional[SupervisedThread] = None
        self._stop = threading.Event()
        self._own_ident: Optional[int] = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Start the sampler daemon (idempotent while running).

        Guarded by ``_lock``: two concurrent ``/profile`` requests must
        not both pass the ``running`` check and leak a sampler thread.
        """
        with self._lock:
            if self.running:
                return self
            self._stop = threading.Event()
            self.started_at = time.monotonic()
            self._thread = SupervisedThread(
                f"poem-profiler-{self.role}",
                self._run,
                restartable=False,
            ).start()
        return self

    def stop(self, timeout: float = 2.0) -> None:
        """Stop sampling; the collected profile stays readable."""
        with self._lock:
            thread = self._thread
            self._thread = None
            self._stop.set()
        # Join outside the lock — the sampler takes it in sample_once.
        if thread is not None:
            thread.stop(timeout=timeout)

    def _run(self) -> None:
        self._own_ident = threading.get_ident()
        period = 1.0 / self.hz
        overload = self._overload
        while not self._stop.wait(period):
            # Degrade with the overload plane exactly like tracing: the
            # sampler is the cheapest work to shed, so it goes first.
            if overload is not None and not overload.allow_tracing:
                self.paused += 1
                continue
            t0 = time.perf_counter()
            try:
                self.sample_once()
            except Exception:  # poem: ignore[POEM005] — counted in errors
                self.errors += 1
            self._busy_seconds += time.perf_counter() - t0

    # -- sampling --------------------------------------------------------------

    def sample_once(self) -> int:
        """Take one sampling pass (the daemon's body; callable directly
        from tests for deterministic profiles).  Returns the number of
        threads captured."""
        frames = sys._current_frames()
        names = {t.ident: t.name for t in threading.enumerate()}
        now = self._clock()
        captured = 0
        ring = self._ring  # bounded deque (maxlen above)
        with self._lock:
            for ident, frame in frames.items():
                if ident == self._own_ident:
                    continue  # the sampler never profiles itself
                thread = names.get(ident) or f"tid-{ident}"
                labels: list[str] = []
                depth = 0
                f: Any = frame
                while f is not None and depth < self.max_depth:
                    labels.append(_frame_label(f))
                    f = f.f_back
                    depth += 1
                labels.reverse()
                if f is not None:
                    labels.insert(0, "(deeper)")
                key = f"{self.role};{thread};" + ";".join(labels)
                stacks = self._stacks
                if key in stacks:
                    stacks[key] += 1
                elif len(stacks) < self.max_stacks:
                    stacks[key] = 1
                else:
                    overflow = f"{self.role};{thread};(other)"
                    stacks[overflow] = stacks.get(overflow, 0) + 1
                    self.dropped_stacks += 1
                ring.append((now, thread, labels[-1] if labels else "?"))
                captured += 1
            self.samples += 1
        return captured

    # -- reading the profile ---------------------------------------------------

    def folded(self) -> dict[str, int]:
        """The merged folded-stack table: local samples plus everything
        folded in from remote processes (disjoint by ``role`` root)."""
        with self._lock:
            combined = dict(self._stacks)
            for key, count in self._remote.items():
                combined[key] = combined.get(key, 0) + count
        return combined

    def collapsed(self) -> str:
        """flamegraph.pl / speedscope input: one ``stack count`` line
        per folded stack, heaviest first."""
        table = self.folded()
        lines = [
            f"{key} {count}"
            for key, count in sorted(
                table.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def recent_samples(self) -> list[tuple[float, str, str]]:
        """The bounded ring of recent local samples (timeline feed)."""
        with self._lock:
            return list(self._ring)

    def overhead_fraction(self) -> float:
        """Wall-clock fraction this process spent inside the sampler."""
        if self.started_at is None:
            return 0.0
        wall = time.monotonic() - self.started_at
        return self._busy_seconds / wall if wall > 0 else 0.0

    def snapshot(self, top: Optional[int] = None) -> dict[str, Any]:
        """The profile as a JSON-safe dict (control frames, crash
        artifacts, ``GET /profile?format=json``).  ``top`` bounds the
        stack table to the heaviest N entries — crash artifacts must
        stay small."""
        stacks = self.folded()
        if top is not None and len(stacks) > top:
            kept = sorted(stacks.items(), key=lambda kv: (-kv[1], kv[0]))
            stacks = dict(kept[: max(int(top), 1)])
        return {
            "schema": PROFILE_SCHEMA,
            "role": self.role,
            "hz": self.hz,
            "samples": self.samples,
            "paused": self.paused,
            "errors": self.errors,
            "dropped_stacks": self.dropped_stacks,
            "overhead_fraction": self.overhead_fraction(),
            "stacks": stacks,
        }

    # -- cluster merge ---------------------------------------------------------

    def fold_remote(
        self, source: Any, profile: Optional[Mapping[str, Any]]
    ) -> None:
        """Fold one remote process's profile snapshot (its ``stacks``
        table is cumulative; the merger turns it into deltas)."""
        if not profile:
            return
        stacks = profile.get("stacks")
        if not stacks:
            return
        with self._lock:
            self._merger.fold(source, stacks)

    def forget_remote(self, source: Any) -> None:
        """``source`` of :meth:`fold_remote` restarted: its next table
        counts from zero (:meth:`ProfileMerger.forget`)."""
        with self._lock:
            self._merger.forget(source)


class ProfileMerger:
    """Delta-merge cumulative remote stack tables into one sink table.

    The :class:`~repro.obs.metrics.SnapshotMerger` idiom, applied to
    folded stacks: remember the last value seen per ``(source, stack)``
    and add only the growth, so re-sending a cumulative table (every
    barrier does) never double-counts.  The owner of a restarted
    source calls :meth:`forget`, so the new process's counts, which
    begin again at zero, fold in whole.
    """

    def __init__(self, sink: MutableMapping[str, int]) -> None:
        self._sink = sink
        self._last: dict[tuple[Any, str], int] = {}

    def fold(self, source: Any, stacks: Mapping[str, int]) -> None:
        last = self._last
        sink = self._sink
        for key, raw in stacks.items():
            value = int(raw)
            delta = value - last.get((source, key), 0)
            if delta > 0:
                sink[key] = sink.get(key, 0) + delta
            last[(source, key)] = value

    def forget(self, source: Any) -> None:
        """Drop ``source``'s baselines: it restarted."""
        for key in [k for k in self._last if k[0] == source]:
            del self._last[key]


# -- folded-table helpers ------------------------------------------------------


def merge_folded(
    into: MutableMapping[str, int], table: Mapping[str, int]
) -> MutableMapping[str, int]:
    """Plain additive merge of one folded table into another."""
    for key, count in table.items():
        into[key] = into.get(key, 0) + int(count)
    return into


def summarize_folded(
    table: Mapping[str, int],
) -> dict[str, dict[str, Any]]:
    """Reduce a folded table to per-``role;thread`` self-time.

    Self-time goes to the *leaf* frame — the function actually on-CPU
    (or holding the GIL slot) when the sample landed.
    """
    threads: dict[str, dict[str, Any]] = {}
    for key, count in table.items():
        parts = key.split(";")
        if len(parts) < 3:
            continue
        lane = f"{parts[0]};{parts[1]}"
        leaf = parts[-1]
        entry = threads.setdefault(lane, {"samples": 0, "self": {}})
        entry["samples"] += count
        entry["self"][leaf] = entry["self"].get(leaf, 0) + count
    return threads


def format_profile(
    table: Mapping[str, int], *, top: int = 8
) -> str:
    """Render a folded table as the console/CLI text block: one section
    per thread, heaviest threads first, top self-time leaves within."""
    threads = summarize_folded(table)
    total = sum(entry["samples"] for entry in threads.values())
    if total == 0:
        return "profile: no samples"
    lines = [f"profile: {total} samples across {len(threads)} threads"]
    ordered = sorted(
        threads.items(), key=lambda kv: (-kv[1]["samples"], kv[0])
    )
    for lane, entry in ordered:
        share = 100.0 * entry["samples"] / total
        lines.append(f"  {lane:40s} {entry['samples']:7d}  {share:5.1f}%")
        leaves = sorted(
            entry["self"].items(), key=lambda kv: (-kv[1], kv[0])
        )
        for leaf, count in leaves[:top]:
            pct = 100.0 * count / entry["samples"]
            lines.append(f"      {pct:5.1f}%  {leaf}")
    return "\n".join(lines)


# -- the process default -------------------------------------------------------

_default: Optional[SamplingProfiler] = None
_default_lock = threading.Lock()


def set_default(profiler: Optional[SamplingProfiler]) -> None:
    """Install (or clear, with None) the process-default profiler that
    operator surfaces and the flight recorder read."""
    global _default
    with _default_lock:
        _default = profiler


def get_default() -> Optional[SamplingProfiler]:
    return _default

"""Timing wrappers and the in-memory span store of the ``--trace`` run.

The benchmark records spans from its own files: :meth:`SpanLog.wrap`
replaces a public function of an instance or module the benchmark
constructed with a wrapper that times the call and notes which span
caused it.  Nothing under ``src/`` changes; spans inside the program are a
later change.

A span is ``(name, start, end, parent, request)``: ``parent`` is the index
of the enclosing span on the same thread (-1 for a root) and ``request``
the ``(source, seqno)`` of the packet being handled, inherited by child
spans so that the spans of one request share an identifier.  Times are
``time.perf_counter`` readings, which on Linux come from the system-wide
monotonic clock and so line up across the benchmark's processes.

A layer's **self time** is its spans' duration minus the part their child
spans cover.  Because every wrapped call made inside a root span is a
descendant of it, the self times of all layers sum to the total duration
of the root spans.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Optional

from summary import percentile

_perf = time.perf_counter

Request = Optional[tuple[int, int]]


class SpanLog:
    """Span store plus per-layer aggregates for one process."""

    def __init__(self, capacity: int = 400_000) -> None:
        # Preallocated so recording a span never grows a container in
        # the timed phase; calls beyond the capacity still feed the
        # aggregates, only their span rows are not kept.
        self._slots: list[Optional[tuple]] = [None] * capacity
        self._capacity = capacity
        self._next = itertools.count()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict[str, list]] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- installing wrappers -------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        request: Optional[Callable[[tuple], Request]] = None,
        observe: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``request(args)`` extracts the packet identity when the call has
        one; ``observe(args, result)`` runs after the timed interval for
        counts measured at the same boundary (batch sizes, return
        values).
        """
        fn = getattr(owner, attr)
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, self._wrapper(fn, name, request, observe))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute (module functions included)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)  # instance shadow of a class method
            else:
                setattr(owner, attr, original)

    def root(self, name: str) -> "_RootSpan":
        """Context manager opening a root span around benchmark code."""
        return _RootSpan(self, name)

    def _state(self):
        tls = self._tls
        try:
            return tls.frames, tls.stats
        except AttributeError:
            tls.frames = []
            tls.stats = {}
            with self._lock:
                self._per_thread.append(tls.stats)
            return tls.frames, tls.stats

    def _enter(self, req: Request) -> list:
        frames, _ = self._state()
        idx = next(self._next)
        if frames:
            parent = frames[-1]
            frame = [idx, 0.0, req if req is not None else parent[2], parent[0]]
        else:
            frame = [idx, 0.0, req, -1]
        frames.append(frame)
        return frame

    def _exit(self, name: str, frame: list, t0: float, t1: float) -> None:
        frames, stats = self._state()
        frames.pop()
        dur = t1 - t0
        if frames:
            frames[-1][1] += dur
        stat = stats.get(name)
        if stat is None:
            stat = stats[name] = [0, 0.0, 0.0, []]
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - frame[1]
        stat[3].append(dur)
        idx = frame[0]
        if idx < self._capacity:
            self._slots[idx] = (name, t0, t1, frame[3], frame[2])

    def _wrapper(self, fn, name, request, observe):
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(request(args) if request is not None else None)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, frame, t0, _perf())
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def reset_stats(self) -> None:
        """Forget the aggregates (not the span rows): called when the
        timed phase starts so that warm-up calls do not count."""
        with self._lock:
            for stats in self._per_thread:
                stats.clear()

    # -- reading -------------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Per-layer aggregates folded over every thread."""
        with self._lock:
            per_thread = list(self._per_thread)
        folded: dict[str, list] = {}
        for stats in per_thread:
            for name, (count, total, self_s, durations) in list(stats.items()):
                acc = folded.setdefault(name, [0, 0.0, 0.0, []])
                acc[0] += count
                acc[1] += total
                acc[2] += self_s
                acc[3].extend(durations)
        return {
            name: {
                "calls": count,
                "total_s": total,
                "self_s": self_s,
                "mean_us": total / count * 1e6 if count else 0.0,
                "p50_us": percentile(durations, 0.5) * 1e6,
                "p99_us": percentile(durations, 0.99) * 1e6,
            }
            for name, (count, total, self_s, durations) in folded.items()
        }

    def rows(self) -> list[list]:
        """Recorded spans as ``[index, name, start, end, parent, source,
        seqno]`` rows (source/seqno are null without a request)."""
        out = []
        for idx, slot in enumerate(self._slots):
            if slot is None:
                continue
            name, t0, t1, parent, req = slot
            src, seq = req if req is not None else (None, None)
            out.append([idx, name, t0, t1, parent, src, seq])
        return out

    def dropped(self) -> int:
        """Calls whose span row did not fit the preallocated store."""
        return max(next(self._next) - self._capacity, 0)


def stat(layers: dict[str, dict[str, float]], name: str, key: str) -> float:
    """One aggregate of one layer; 0.0 for a layer that was never called."""
    return layers.get(name, {}).get(key, 0.0)


class _RootSpan:
    def __init__(self, log: SpanLog, name: str) -> None:
        self._log = log
        self._name = name

    def __enter__(self) -> None:
        self._frame = self._log._enter(None)
        self._t0 = _perf()

    def __exit__(self, *exc) -> None:
        self._log._exit(self._name, self._frame, self._t0, _perf())


_MISSING = object()


def write_span_file(path: str, process: str, rows: list[list], dropped: int) -> None:
    """One JSON document per process: the spans plus what was cut."""
    with open(path, "w") as fh:
        json.dump(
            {
                "process": process,
                "clock": "time.perf_counter (system-wide monotonic)",
                "columns": [
                    "index", "name", "start", "end", "parent",
                    "source", "seqno",
                ],
                "dropped": dropped,
                "spans": rows,
            },
            fh,
        )


def load_span_file(path: str) -> dict:
    """Read a span file back and check it is well formed: every span's
    parent is either -1 (a root) or the index of a recorded span."""
    with open(path) as fh:
        doc = json.load(fh)
    known = {row[0] for row in doc["spans"]}
    for row in doc["spans"]:
        if row[4] != -1 and row[4] not in known:
            raise ValueError(f"span {row[0]} has unknown parent {row[4]}")
        if row[3] < row[2]:
            raise ValueError(f"span {row[0]} ends before it starts")
    return doc

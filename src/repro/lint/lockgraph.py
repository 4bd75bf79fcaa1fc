"""Runtime lock-order detector: the dynamic half of ``poem lint``.

Static rules can prove a *call* never blocks under a lock, but only the
runtime can observe the *order* locks are taken in.  A deadlock needs
two ingredients — a cycle in the lock-order graph and concurrent
contention — and the first is detectable even on runs that never hang:
if thread 1 ever acquires B while holding A, and thread 2 ever acquires
A while holding B, the AB/BA cycle exists whether or not the timing
lined up this run.  That is the classic lock-order-graph technique
(Goodstein et al.; also how ``helgrind`` and Go's runtime lock ranking
work), reduced to the stdlib.

Three pieces:

:class:`InstrumentedLock`
    A drop-in for ``threading.Lock``/``RLock`` that reports every
    acquisition to a :class:`LockGraph`.  Reentrant acquisitions of an
    RLock do not create self-edges; a failed fast-path ``acquire(False)``
    while the thread already holds another lock is recorded as a
    :class:`ContentionEvent` (a held-lock blocking wait — the runtime
    analogue of POEM002).

:class:`LockGraph`
    The global order graph.  Nodes are lock names, edges ``A -> B``
    mean "some thread acquired B while holding A", each edge carries a
    witness (thread name + abbreviated stack captured the first time
    the edge appeared).  :meth:`LockGraph.cycles` runs Tarjan's SCC
    over the edge set — any SCC with more than one node (or a
    self-loop) is a potential deadlock, reported with the witness
    stacks for each edge of the cycle.

:func:`instrument_module_locks`
    A context manager that patches ``threading.Lock``/``threading.RLock``
    so everything *constructed* inside the ``with`` block is
    instrumented transparently.  Names are derived from the caller's
    file/line, so a cycle report reads ``scene.py:62 -> scheduler.py:41``.
    Used by the opt-in test fixture and ``poem lint --runtime``.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field
from types import TracebackType
from typing import Iterator, Optional, Type

from contextlib import contextmanager

__all__ = [
    "ContentionEvent",
    "InstrumentedLock",
    "LockCycle",
    "LockGraph",
    "instrument_module_locks",
]

#: Frames of witness stack kept per edge (innermost, minus our own).
_WITNESS_DEPTH = 6

#: The real factories, captured before any patching — the detector's own
#: internals must build native locks even while the patch is active
#: (otherwise InstrumentedLock.__init__ would recurse into the factory).
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock


def _witness_stack() -> list[str]:
    """Abbreviated caller stack, innermost last, our own frames dropped."""
    frames = traceback.extract_stack()
    trimmed = [
        f"{fr.filename.rsplit('/', 1)[-1]}:{fr.lineno} in {fr.name}"
        for fr in frames
        if "lint/lockgraph" not in fr.filename.replace("\\", "/")
    ]
    return trimmed[-_WITNESS_DEPTH:]


@dataclass(frozen=True)
class ContentionEvent:
    """A blocking wait observed while the thread already held a lock."""

    thread: str
    wanted: str
    held: tuple[str, ...]
    stack: tuple[str, ...]

    def as_dict(self) -> dict[str, object]:
        return {
            "thread": self.thread,
            "wanted": self.wanted,
            "held": list(self.held),
            "stack": list(self.stack),
        }


@dataclass(frozen=True)
class LockCycle:
    """A cycle in the lock-order graph: a potential deadlock.

    ``locks`` is the cycle's node sequence (first node repeated last is
    implied); ``witnesses`` maps each ``"A -> B"`` edge of the cycle to
    the (thread, stack) that first created it.
    """

    locks: tuple[str, ...]
    witnesses: dict[str, dict[str, object]] = field(compare=False)

    def as_dict(self) -> dict[str, object]:
        return {"locks": list(self.locks), "witnesses": self.witnesses}


class LockGraph:
    """Global lock-order graph fed by :class:`InstrumentedLock`.

    Thread-safe; its own internal lock is a plain ``threading.Lock``
    (never instrumented — the detector must not observe itself).
    """

    def __init__(self) -> None:
        self._mu = _REAL_LOCK()
        #: edge -> witness: {"thread": ..., "stack": [...]}
        self._edges: dict[tuple[str, str], dict[str, object]] = {}
        self._locks: set[str] = set()
        self._acquisitions = 0
        self._contentions: list[ContentionEvent] = []
        self._tls = threading.local()

    # -- per-thread held-stack bookkeeping -------------------------------

    def _held(self) -> list[str]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = []
            self._tls.held = held
        return held

    def note_acquired(self, name: str) -> None:
        """Record that the current thread now holds ``name``."""
        held = self._held()
        new_edges = [(h, name) for h in held if h != name]
        held.append(name)
        with self._mu:
            self._locks.add(name)
            self._acquisitions += 1
            missing = [e for e in new_edges if e not in self._edges]
        if missing:
            # Capture the (expensive) witness stack only for new edges.
            witness = {
                "thread": threading.current_thread().name,
                "stack": _witness_stack(),
            }
            with self._mu:
                for e in missing:
                    self._edges.setdefault(e, witness)

    def note_released(self, name: str) -> None:
        """Record that the current thread dropped ``name``."""
        held = self._held()
        # Locks are usually released LIFO, but don't require it.
        for i in range(len(held) - 1, -1, -1):
            if held[i] == name:
                del held[i]
                break

    def note_contention(self, name: str) -> None:
        """A blocking wait on ``name`` while this thread holds others."""
        held = tuple(self._held())
        if not held:
            return
        ev = ContentionEvent(
            thread=threading.current_thread().name,
            wanted=name,
            held=held,
            stack=tuple(_witness_stack()),
        )
        with self._mu:
            self._contentions.append(ev)

    # -- read side ---------------------------------------------------------

    @property
    def acquisitions(self) -> int:
        with self._mu:
            return self._acquisitions

    def lock_names(self) -> frozenset[str]:
        with self._mu:
            return frozenset(self._locks)

    def edges(self) -> dict[tuple[str, str], dict[str, object]]:
        with self._mu:
            return dict(self._edges)

    def edge_count(self) -> int:
        with self._mu:
            return len(self._edges)

    def contentions(self) -> list[ContentionEvent]:
        with self._mu:
            return list(self._contentions)

    def cycles(self) -> list[LockCycle]:
        """All elementary lock-order cycles (Tarjan SCC + closure).

        Every SCC with >1 node — or a self-loop — is reported once, as
        the SCC's node list in discovery order with the witnesses of
        the intra-SCC edges.
        """
        with self._mu:
            edges = dict(self._edges)
        adj: dict[str, list[str]] = {}
        for (a, b) in edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, [])

        # Iterative Tarjan (no recursion limit surprises).
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = 0
        sccs: list[list[str]] = []

        for root in adj:
            if root in index:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, pi = work[-1]
                if pi == 0:
                    index[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                succs = adj[node]
                for i in range(pi, len(succs)):
                    nxt = succs[i]
                    if nxt not in index:
                        work[-1] = (node, i + 1)
                        work.append((nxt, 0))
                        recurse = True
                        break
                    if nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                if recurse:
                    continue
                if low[node] == index[node]:
                    scc: list[str] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == node:
                            break
                    sccs.append(scc)
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])

        out: list[LockCycle] = []
        for scc in sccs:
            members = set(scc)
            cyclic = len(scc) > 1 or (scc[0], scc[0]) in edges
            if not cyclic:
                continue
            witnesses = {
                f"{a} -> {b}": w
                for (a, b), w in edges.items()
                if a in members and b in members
            }
            out.append(
                LockCycle(locks=tuple(reversed(scc)), witnesses=witnesses)
            )
        out.sort(key=lambda c: c.locks)
        return out

    def bind_telemetry(self, registry: object) -> None:
        """Expose ``poem_lockgraph_edges`` on an obs MetricsRegistry.

        Accepts any object with the registry's ``gauge_fn(name, fn,
        help=...)`` signature; does nothing (quietly) when the registry
        lacks it, so lint never hard-depends on obs.
        """
        gauge_fn = getattr(registry, "gauge_fn", None)
        if gauge_fn is None:
            return
        gauge_fn(
            "poem_lockgraph_edges",
            "Observed lock-order edges (runtime lint instrumentation)",
            lambda: float(self.edge_count()),
        )
        gauge_fn(
            "poem_lockgraph_cycles",
            "Lock-order cycles observed (potential deadlocks)",
            lambda: float(len(self.cycles())),
        )

    def as_dict(self) -> dict[str, object]:
        cycles = self.cycles()
        contentions = self.contentions()
        return {
            "locks": len(self.lock_names()),
            "edges": self.edge_count(),
            "acquisitions": self.acquisitions,
            "cycles": [c.as_dict() for c in cycles],
            "contentions": [e.as_dict() for e in contentions],
            # The gate is cycles-only: a cycle is deterministic evidence
            # of a bad ordering regardless of this run's timing, while a
            # contended acquire depends on how two threads happened to
            # interleave.  Contentions stay in the report as diagnostics.
            "clean": not cycles,
        }


class InstrumentedLock:
    """Drop-in ``Lock``/``RLock`` that reports into a :class:`LockGraph`.

    Supports the full lock protocol (``acquire(blocking, timeout)``,
    ``release``, context manager, ``locked``) plus the private
    ``_is_owned``/``_acquire_restore``/``_release_save`` hooks
    ``threading.Condition`` uses, so a Condition built over an
    instrumented RLock keeps working.
    """

    def __init__(
        self,
        name: str,
        graph: LockGraph,
        *,
        reentrant: bool = False,
    ) -> None:
        self.name = name
        self._graph = graph
        self._reentrant = reentrant
        self._inner = _REAL_RLOCK() if reentrant else _REAL_LOCK()
        self._owner: Optional[int] = None
        self._depth = 0

    # -- core protocol ----------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        me = threading.get_ident()
        if self._reentrant and self._owner == me:
            # Reentrant re-acquire: no edge, no contention.
            self._inner.acquire()
            self._depth += 1
            return True
        # Fast path probe: an uncontended acquire stays cheap and a
        # contended one while holding other locks is itself a finding.
        got = self._inner.acquire(False)
        if not got:
            if not blocking:
                return False
            self._graph.note_contention(self.name)
            got = self._inner.acquire(True, timeout)
            if not got:
                return False
        self._owner = me
        self._depth = 1
        self._graph.note_acquired(self.name)
        return True

    def release(self) -> None:
        me = threading.get_ident()
        if self._owner != me:
            # Let the inner lock raise the canonical error.
            self._inner.release()
            return
        self._depth -= 1
        if self._depth == 0:
            self._owner = None
            self._graph.note_released(self.name)
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.release()

    def locked(self) -> bool:
        locked = getattr(self._inner, "locked", None)
        if locked is not None:
            return bool(locked())
        return self._owner is not None

    # -- threading.Condition compatibility --------------------------------

    def _is_owned(self) -> bool:
        return self._owner == threading.get_ident()

    def _release_save(self) -> tuple[int, int]:
        """Condition.wait(): drop the lock entirely, remember the depth."""
        depth, owner = self._depth, self._owner or 0
        self._depth = 0
        self._owner = None
        self._graph.note_released(self.name)
        for _ in range(depth):
            self._inner.release()
        return (depth, owner)

    def _acquire_restore(self, state: tuple[int, int]) -> None:
        depth, owner = state
        for _ in range(depth):
            self._inner.acquire()
        self._depth = depth
        self._owner = owner or threading.get_ident()
        # Waking from Condition.wait() re-takes the lock; record it so
        # held-stacks stay accurate (it cannot create a *new* ordering
        # relative to locks taken before wait() — wait() dropped this
        # one — but it can relative to locks taken while waiting).
        self._graph.note_acquired(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "RLock" if self._reentrant else "Lock"
        return f"<InstrumentedLock {kind} {self.name!r}>"


def _caller_site() -> str:
    """``file.py:line`` of the frame that called threading.Lock()."""
    for fr in reversed(traceback.extract_stack()):
        fname = fr.filename.replace("\\", "/")
        if "lint/lockgraph" in fname or fname.endswith("threading.py"):
            continue
        return f"{fname.rsplit('/', 1)[-1]}:{fr.lineno}"
    return "<unknown>"


@contextmanager
def instrument_module_locks(
    graph: Optional[LockGraph] = None,
) -> Iterator[LockGraph]:
    """Patch ``threading.Lock``/``RLock`` so locks constructed inside the
    block report into ``graph`` (a fresh one by default).

    Only locks *created* under the context manager are instrumented;
    pre-existing locks keep their native type.  The patch is
    process-global while active — build the deployment inside the
    ``with`` block, then run it (the instrumented locks keep reporting
    after the block exits; the graph outlives the patch).
    """
    g = graph if graph is not None else LockGraph()
    orig_lock = threading.Lock
    orig_rlock = threading.RLock

    def make_lock() -> InstrumentedLock:
        return InstrumentedLock(_caller_site(), g, reentrant=False)

    def make_rlock() -> InstrumentedLock:
        return InstrumentedLock(_caller_site(), g, reentrant=True)

    threading.Lock = make_lock  # type: ignore[assignment]
    threading.RLock = make_rlock  # type: ignore[assignment]
    try:
        yield g
    finally:
        threading.Lock = orig_lock  # type: ignore[assignment]
        threading.RLock = orig_rlock  # type: ignore[assignment]

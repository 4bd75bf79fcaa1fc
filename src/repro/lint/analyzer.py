"""``poem lint`` — the AST pass enforcing POEM001-POEM007.

The analyzer is deliberately *lexical*: it never imports the code under
analysis, needs nothing outside the stdlib, and errs on the side of
precision (each rule is scoped so the codebase at HEAD is clean without
blanket waivers).  Scope decisions worth knowing:

* **POEM002** recognizes a critical section as a ``with`` statement
  whose context expression's dotted name contains ``lock`` or ``mutex``
  (``self._lock``, ``self._clients_lock``, ...).  ``Condition.wait()``
  is *not* in the blocking set — it releases the lock it guards, which
  is the one blocking-under-lock pattern that is correct by design.
* **POEM003** applies inside classes whose name contains ``Scene``: any
  method that emits a mutation event (``self._emit``) must also advance
  the version counter (``self._bump``) — it is the cluster's
  replication stamp.
* **POEM004**, **POEM006** and **POEM007** are scoped by module basename
  (the hot-path trio ``engine.py``/``scheduler.py``/``tcpserver.py``;
  the delay/scheduling set adds ``clock.py``/``server.py``/
  ``virtual.py``/``faults.py``) so rules stay sharp instead of drowning
  the tree in suppressions.
* **POEM007** flags three unbounded-growth shapes on hot-path modules:
  ``deque()`` without ``maxlen``, a ``queue.Queue``-family construction
  with no size bound, and ``self.<attr>.append`` inside a loop.
  Loop-local list appends stay legal — batch buffers are the idiom.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from ..errors import PoEmError
from .rules import Finding, is_suppressed

__all__ = ["lint_source", "lint_file", "lint_paths", "iter_python_files"]

#: Module basenames allowed to construct raw ``threading.Thread`` objects.
_THREAD_NURSERIES = frozenset({"supervision.py"})

#: Hot-path modules where per-packet recording in a loop is a finding.
#: ``worker.py`` is the shard worker's ingest loop — per-packet
#: recording there would multiply by the cluster size.  ``profiler.py``
#: runs ~100×/s inside every process being measured: an unbounded
#: container or a recorder call in its sampling loop would make the
#: observer the overload.
_HOT_PATH_MODULES = frozenset(
    {"engine.py", "scheduler.py", "tcpserver.py", "worker.py",
     "profiler.py"}
)

#: Delay/scheduling modules where ``time.time()`` is a finding.
_MONOTONIC_MODULES = frozenset(
    {
        "clock.py",
        "scheduler.py",
        "engine.py",
        "server.py",
        "tcpserver.py",
        "virtual.py",
        "faults.py",
    }
)

#: Attribute names that block on sockets.
_SOCKET_BLOCKING = frozenset(
    {"recv", "recv_into", "recvfrom", "send", "sendall", "sendto",
     "accept", "connect"}
)

#: Project-known blocking helpers (net/framing.py does raw socket I/O).
_FRAMING_BLOCKING = frozenset({"send_frame", "send_frames", "recv_frame"})

#: sqlite / DB-API calls that hit the disk.
_DB_BLOCKING = frozenset({"execute", "executemany", "executescript", "commit"})

#: Names of the wall-clock ``time`` module (the codebase aliases it).
_TIME_MODULE_NAMES = frozenset({"time", "_time", "_time_mod"})


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_broad_exception(node: Optional[ast.expr]) -> bool:
    """Does this ``except`` clause catch Exception/BaseException?"""
    if node is None:
        return True  # bare except (handled separately, but be safe)
    if isinstance(node, ast.Tuple):
        return any(_is_broad_exception(el) for el in node.elts)
    name = _dotted(node)
    return name is not None and name.rsplit(".", 1)[-1] in (
        "Exception",
        "BaseException",
    )


class _Analyzer(ast.NodeVisitor):
    """One file's rule pass; collects raw findings (pre-suppression)."""

    def __init__(self, path_label: str, basename: str) -> None:
        self.path = path_label
        self.basename = basename
        self.findings: list[Finding] = []
        self._with_locks: list[tuple[str, int]] = []
        self._loop_depth = 0
        self._class_stack: list[str] = []

    # -- helpers ------------------------------------------------------------

    def _add(
        self,
        rule: str,
        node: ast.AST,
        message: str,
        scope_line: Optional[int] = None,
    ) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
                scope_line=scope_line,
            )
        )

    # -- structure tracking ---------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        # POEM003: Scene mutators must bump the version counter after
        # emitting the mutation event (the replication stamp).
        if self._class_stack and "Scene" in self._class_stack[-1]:
            emit_call: Optional[ast.Call] = None
            bumps = False
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    name = _dotted(sub.func)
                    if name is not None and name.endswith("._emit"):
                        if emit_call is None:
                            emit_call = sub
                    elif name is not None and name.endswith("._bump"):
                        bumps = True
            if emit_call is not None and not bumps:
                self._add(
                    "POEM003",
                    emit_call,
                    f"Scene.{node.name} emits a mutation event but never "
                    "bumps the version counter (stale replication stamp)",
                    scope_line=node.lineno,
                )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_With(self, node: ast.With) -> None:
        self._enter_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._enter_with(node)

    def _enter_with(
        self, node: Union[ast.With, ast.AsyncWith]
    ) -> None:
        pushed = 0
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                expr = expr.func
            name = _dotted(expr)
            if name is None:
                continue
            leaf = name.rsplit(".", 1)[-1].lower()
            if "lock" in leaf or "mutex" in leaf:
                self._with_locks.append((name, node.lineno))
                pushed += 1
        self.generic_visit(node)
        for _ in range(pushed):
            self._with_locks.pop()

    def visit_For(self, node: ast.For) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    # -- POEM005 ----------------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._add(
                "POEM005",
                node,
                "bare `except:` swallows every error, including "
                "KeyboardInterrupt and supervision crashes",
            )
        elif _is_broad_exception(node.type):
            swallows = not any(
                isinstance(sub, (ast.Call, ast.Raise))
                for stmt in node.body
                for sub in ast.walk(stmt)
            )
            if swallows:
                self._add(
                    "POEM005",
                    node,
                    "broad exception handler swallows silently (no log "
                    "event, no re-raise)",
                )
        self.generic_visit(node)

    # -- call-level rules ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        leaf = name.rsplit(".", 1)[-1] if name else None

        # POEM001: raw thread construction outside the supervision layer.
        if (
            leaf == "Thread"
            and name in ("Thread", "threading.Thread")
            and self.basename not in _THREAD_NURSERIES
        ):
            self._add(
                "POEM001",
                node,
                "raw threading.Thread() — crashes in this thread die "
                "silently instead of reaching the supervision layer",
            )

        # POEM006: wall clock in delay/scheduling code.
        if (
            leaf == "time"
            and name is not None
            and "." in name
            and name.rsplit(".", 1)[0] in _TIME_MODULE_NAMES
            and self.basename in _MONOTONIC_MODULES
        ):
            self._add(
                "POEM006",
                node,
                "time.time() is not monotonic; forward-time arithmetic "
                "here must use time.monotonic()/the emulation clock",
            )

        # POEM004: per-packet recording in a hot-path loop.
        if (
            leaf in ("record_packet", "record")
            and name is not None
            and "." in name
            and self.basename in _HOT_PATH_MODULES
            and self._loop_depth > 0
        ):
            self._add(
                "POEM004",
                node,
                f"{leaf}() inside a loop on a hot-path module — one "
                "recorder lock acquisition per packet",
            )

        # POEM007: unbounded hot-path containers.  Three shapes: a
        # deque without maxlen, a queue.Queue family construction with
        # neither a positional maxsize nor the keyword, and an append
        # onto an instance attribute from inside a loop (per-iteration
        # growth that outlives the function).  Loop-local lists stay
        # legal — batching buffers are the hot-path idiom.
        if self.basename in _HOT_PATH_MODULES and name is not None:
            kwargs = {kw.arg for kw in node.keywords if kw.arg}
            if (
                leaf == "deque"
                and name.rsplit(".", 1)[0] in ("deque", "collections")
                and "maxlen" not in kwargs
            ):
                self._add(
                    "POEM007",
                    node,
                    "deque() without maxlen on a hot-path module — "
                    "grows without bound under overload",
                )
            elif (
                leaf in ("Queue", "LifoQueue", "PriorityQueue", "SimpleQueue")
                and (name == leaf or name.rsplit(".", 1)[0] == "queue")
                and not node.args
                and "maxsize" not in kwargs
            ):
                self._add(
                    "POEM007",
                    node,
                    f"{leaf}() without a maxsize bound on a hot-path "
                    "module — backpressure never reaches the producer",
                )
            elif (
                leaf == "append"
                and self._loop_depth > 0
                and name.startswith("self.")
                and name.count(".") >= 2
            ):
                self._add(
                    "POEM007",
                    node,
                    f"{name}() inside a loop — unbounded growth of an "
                    "instance attribute on the hot path",
                )

        # POEM002: blocking call inside a lock-guarded with-block.
        if self._with_locks:
            blocking = self._blocking_reason(node, name, leaf)
            if blocking is not None:
                lock_name, with_line = self._with_locks[-1]
                self._add(
                    "POEM002",
                    node,
                    f"{blocking} while holding {lock_name!r}",
                    scope_line=with_line,
                )
        self.generic_visit(node)

    def _blocking_reason(
        self,
        node: ast.Call,
        name: Optional[str],
        leaf: Optional[str],
    ) -> Optional[str]:
        """Why this call is considered blocking (None when it isn't)."""
        if leaf is None:
            return None
        if leaf == "sleep":
            return "time.sleep()"
        if name == "open" or leaf in ("read_text", "write_text",
                                      "read_bytes", "write_bytes"):
            return "file I/O"
        if leaf in _FRAMING_BLOCKING:
            return f"socket framing call {leaf}()"
        if leaf in _DB_BLOCKING and name is not None and "." in name:
            return f"database call .{leaf}()"
        if leaf in _SOCKET_BLOCKING and name is not None and "." in name:
            return f"socket call .{leaf}()"
        has_kw = {kw.arg for kw in node.keywords if kw.arg}
        if name is not None and "." in name:
            if leaf == "get" and not node.args and not node.keywords:
                return "Queue.get() without a timeout"
            if (
                leaf == "put"
                and len(node.args) == 1
                and not has_kw & {"block", "timeout"}
            ):
                return "Queue.put() without a timeout"
            if leaf == "join" and not node.args and not has_kw:
                return ".join() without a timeout"
        return None


def lint_source(
    source: str, path_label: str = "<string>"
) -> list[Finding]:
    """Lint one source string; returns suppression-filtered findings."""
    basename = Path(path_label).name
    try:
        tree = ast.parse(source, filename=path_label)
    except SyntaxError as exc:
        raise PoEmError(
            f"cannot lint {path_label}: {exc.msg} (line {exc.lineno})"
        ) from exc
    analyzer = _Analyzer(path_label, basename)
    analyzer.visit(tree)
    lines = source.splitlines()
    return [
        f
        for f in analyzer.findings
        if not is_suppressed(f.rule, lines, f.line, f.scope_line)
    ]


def lint_file(path: Union[str, Path]) -> list[Finding]:
    """Lint one file on disk."""
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise PoEmError(f"cannot read {p}: {exc}") from exc
    return lint_source(source, str(p))


def iter_python_files(paths: Iterable[Union[str, Path]]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.update(
                f
                for f in p.rglob("*.py")
                if "__pycache__" not in f.parts
            )
        elif p.suffix == ".py":
            out.add(p)
        else:
            raise PoEmError(f"not a Python file or directory: {p}")
    return sorted(out)


def lint_paths(
    paths: Sequence[Union[str, Path]],
) -> tuple[list[Finding], int]:
    """Lint files/directories; returns ``(findings, files_checked)``.

    Findings are ordered by (path, line, col, rule) for stable output.
    """
    files = iter_python_files(paths)
    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_file(f))
    findings.sort(key=lambda x: (x.path, x.line, x.col, x.rule))
    return findings, len(files)

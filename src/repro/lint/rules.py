"""The POEM rule catalog, findings, and the suppression protocol.

Every rule encodes a project invariant introduced by an earlier PR and
relied on by the real-time pipeline.  A rule is *lexical*: it inspects
the AST (plus file paths), never runtime state — the runtime half of the
toolkit lives in :mod:`repro.lint.lockgraph`.

Suppression protocol
--------------------
A deliberate violation is silenced with a ``# poem: ignore[RULE]``
comment on the flagged line, on the line directly above it, or on the
line of the enclosing scope the finding reports (e.g. the ``with``
statement owning a lock-guarded block, or the ``def`` line of the
function a whole-function rule flags).  ``# poem: ignore`` without a
rule list suppresses every rule on that line.  Always pair a suppression
with a justification — the linter cannot check *why*, reviewers can.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Rule", "RULES", "Finding", "suppressed_rules"]


@dataclass(frozen=True)
class Rule:
    """One entry of the catalog (see docs/static-analysis.md)."""

    code: str
    name: str
    summary: str
    hint: str


RULES: dict[str, Rule] = {
    r.code: r
    for r in (
        Rule(
            "POEM001",
            "raw-thread",
            "raw threading.Thread() outside core/supervision.py",
            "spawn through SupervisedThread / HealthRegistry.spawn() so "
            "crashes are recorded and restartable loops restart with "
            "backoff instead of dying silently",
        ),
        Rule(
            "POEM002",
            "blocking-under-lock",
            "blocking call lexically inside a `with <lock>` block",
            "move the blocking call outside the critical section, or use "
            "a timeout-bearing variant; a sleep/recv/IO under a lock "
            "stalls every thread contending for it (scheduler-lag spikes)",
        ),
        Rule(
            "POEM003",
            "scene-version-bump",
            "Scene mutation emits an event without bumping a version",
            "call self._bump() after self._emit(...): Scene.version is "
            "the replication stamp and the contrast scheme's cache key; "
            "a missed bump leaves both believing nothing changed",
        ),
        Rule(
            "POEM004",
            "per-packet-record",
            "per-packet Recorder.record_packet() inside a loop on a "
            "hot-path module",
            "batch the rows: one record_many(rows) per fan-out — one "
            "lock acquisition per fan-out, not per packet (the hot-path "
            "contract)",
        ),
        Rule(
            "POEM005",
            "swallowed-exception",
            "bare `except:` or a broad exception handler that swallows "
            "silently",
            "narrow the exception type, or record the failure (log_event "
            "/ HealthRegistry.note_failure) — threaded loops that swallow "
            "are how emulations freeze without diagnosis",
        ),
        Rule(
            "POEM006",
            "non-monotonic-clock",
            "wall clock time.time() in delay/scheduling code",
            "use time.monotonic() (or the deployment's EmulationClock); "
            "time.time() jumps under NTP and corrupts forward-time "
            "arithmetic",
        ),
        Rule(
            "POEM007",
            "unbounded-queue",
            "unbounded deque/Queue construction or looped instance-"
            "attribute append on a hot-path module",
            "give the container an explicit bound (deque(maxlen=...), "
            "Queue(maxsize)) or make the growth loop-local — an "
            "unbounded hot-path buffer is how an overloaded server "
            "exhausts memory instead of shedding load",
        ),
        # -- deep (interprocedural) rules: ``poem lint --deep`` -------------
        Rule(
            "POEM008",
            "shared-state-race",
            "instance attribute written from ≥2 thread entrypoints with "
            "no common lock",
            "guard every write with one lock (document which), confine "
            "the field to a single thread, or — for a deliberate "
            "GIL-atomic design — add `# poem: ignore[POEM008]` with a "
            "justification on the field's definition",
        ),
        Rule(
            "POEM009",
            "static-lock-cycle",
            "potential deadlock: cycle in the static lock-order graph "
            "(or a runtime edge the static model missed)",
            "impose a global acquisition order (acquire the cycle's "
            "locks in one fixed order everywhere), or collapse the "
            "locks; for a runtime-miss finding, teach the static model "
            "the callback/lock it failed to resolve",
        ),
        Rule(
            "POEM010",
            "protocol-drift",
            "cluster control op sent but never dispatched by the peer "
            "(or dispatched but never sent)",
            "add the missing dispatch arm (or delete the dead op); the "
            "parent/worker control protocol must stay exhaustive or "
            "frames fail as 'unexpected reply' at a distance",
        ),
    )
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Extra line whose suppression comment also silences this finding
    #: (the enclosing ``with``/``def`` line for scope-level rules).
    scope_line: Optional[int] = field(default=None, compare=False)

    @property
    def hint(self) -> str:
        return RULES[self.rule].hint

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "name": RULES[self.rule].name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


_IGNORE_RE = re.compile(
    r"#\s*poem:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?"
)


def suppressed_rules(line_text: str) -> Optional[frozenset[str]]:
    """Parse a source line's suppression comment.

    Returns ``None`` when the line carries no ``poem: ignore`` marker,
    an empty frozenset for a bare ``# poem: ignore`` (suppress all
    rules), or the set of rule codes listed in the brackets.
    """
    m = _IGNORE_RE.search(line_text)
    if m is None:
        return None
    raw = m.group(1)
    if raw is None:
        return frozenset()
    return frozenset(
        code.strip().upper() for code in raw.split(",") if code.strip()
    )


def is_suppressed(
    rule: str, lines: list[str], *candidates: Optional[int]
) -> bool:
    """True when any candidate line (1-based) or the line directly above
    it carries a suppression covering ``rule``."""
    seen: set[int] = set()
    for lineno in candidates:
        if lineno is None:
            continue
        for ln in (lineno, lineno - 1):
            if ln < 1 or ln > len(lines) or ln in seen:
                continue
            seen.add(ln)
            rules = suppressed_rules(lines[ln - 1])
            if rules is not None and (not rules or rule in rules):
                return True
    return False

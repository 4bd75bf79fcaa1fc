"""POEM010: cluster-protocol exhaustiveness.

The parent (:mod:`repro.cluster.sharded`) and the worker
(:mod:`repro.cluster.worker`) speak a JSON-control protocol whose op
vocabulary is minted by the ``make_*`` helpers in
:mod:`repro.net.messages` (every helper returns a dict literal with an
``"op"`` key).  Nothing ties a send site to a dispatch arm — the two
halves can silently drift apart across refactors, and the failure shows
up as an "unexpected reply" at a distance.

This pass re-derives both halves from the AST:

* **send sites** — calls to a ``make_*`` helper (resolved to its op
  constant) or inline ``{"op": ...}`` dict literals, attributed to the
  side of the file they appear in (``sharded.py`` = parent,
  ``worker.py`` = worker);
* **dispatch sites** — string constants compared against an expression
  that reads the ``"op"`` key (``msg["op"]``, ``msg.get("op")``, or a
  variable assigned from one), directly or through a parameter: a
  function that compares an op read against its own parameter
  (``if msg.get("op") != expect``) dispatches the constants its call
  sites bind to it.

An op one side sends that the *other* side never dispatches is a
finding, and so is a dispatch arm for an op nobody sends (dead
protocol).  Ping/pong and other net-level ops outside the two cluster
endpoints are out of scope.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .callgraph import ModuleInfo, Project
from .rules import Finding

__all__ = ["protocol_findings", "ProtocolModel", "build_protocol_model"]

_PARENT_MODULES = ("cluster.sharded",)
_WORKER_MODULES = ("cluster.worker",)
_VOCAB_MODULES = ("net.messages",)


@dataclass
class ProtocolModel:
    #: make_* helper name -> op string
    vocabulary: Dict[str, str]
    #: side -> {op -> first (path, line) send site}
    sends: Dict[str, Dict[str, Tuple[str, int]]]
    #: side -> {op -> first (path, line) dispatch site}
    dispatches: Dict[str, Dict[str, Tuple[str, int]]]


def _op_of_dict_literal(node: ast.Dict) -> Optional[str]:
    for key, value in zip(node.keys, node.values):
        if (
            isinstance(key, ast.Constant) and key.value == "op"
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            return value.value
    return None


def _collect_vocabulary(mi: ModuleInfo) -> Dict[str, str]:
    """``make_*`` helper -> the op its returned dict literal carries."""
    vocab: Dict[str, str] = {}
    for node in ast.walk(mi.tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        if not node.name.startswith("make_"):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Dict):
                op = _op_of_dict_literal(sub)
                if op is not None:
                    vocab[node.name] = op
                    break
    return vocab


def _is_op_read(expr: ast.expr) -> bool:
    """Does ``expr`` read the ``"op"`` key of a message?"""
    if isinstance(expr, ast.Subscript):
        s = expr.slice
        return isinstance(s, ast.Constant) and s.value == "op"
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        if expr.func.attr == "get" and expr.args:
            a = expr.args[0]
            return isinstance(a, ast.Constant) and a.value == "op"
    return False


def _scan_side(
    mi: ModuleInfo, vocab: Dict[str, str]
) -> Tuple[Dict[str, Tuple[str, int]], Dict[str, Tuple[str, int]]]:
    sends: Dict[str, Tuple[str, int]] = {}
    dispatches: Dict[str, Tuple[str, int]] = {}
    op_vars: Set[str] = set()
    path = str(mi.path)

    # First sweep: find variables assigned from an op read
    # (``op = msg["op"]``).
    for node in ast.walk(mi.tree):
        if isinstance(node, ast.Assign) and _is_op_read(node.value):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    op_vars.add(t.id)

    def reads_op(expr: ast.expr) -> bool:
        if _is_op_read(expr):
            return True
        return isinstance(expr, ast.Name) and expr.id in op_vars

    # Functions comparing an op read against one of their parameters:
    # name -> (positional index not counting self, parameter name).
    expected: Dict[str, Tuple[int, str]] = {}
    for fn in ast.walk(mi.tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        params = [a.arg for a in fn.args.args if a.arg != "self"]
        for node in ast.walk(fn):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left] + list(node.comparators)
            if any(reads_op(s) for s in sides):
                for s in sides:
                    if isinstance(s, ast.Name) and s.id in params:
                        expected[fn.name] = (params.index(s.id), s.id)

    for node in ast.walk(mi.tree):
        if isinstance(node, ast.Call):
            fname = ""
            if isinstance(node.func, ast.Name):
                fname = node.func.id
            elif isinstance(node.func, ast.Attribute):
                fname = node.func.attr
            if fname in vocab:
                sends.setdefault(vocab[fname], (path, node.lineno))
            if fname in expected:
                index, name = expected[fname]
                bound = [kw.value for kw in node.keywords if kw.arg == name]
                bound += node.args[index:index + 1]
                for arg in bound:
                    if isinstance(arg, ast.Constant) and isinstance(
                        arg.value, str
                    ):
                        dispatches.setdefault(arg.value, (path, node.lineno))
        elif isinstance(node, ast.Dict):
            op = _op_of_dict_literal(node)
            if op is not None:
                sends.setdefault(op, (path, node.lineno))
        elif isinstance(node, ast.Compare):
            sides = [node.left] + list(node.comparators)
            if any(reads_op(s) for s in sides):
                for s in sides:
                    if isinstance(s, ast.Constant) and isinstance(
                        s.value, str
                    ):
                        dispatches.setdefault(s.value, (path, node.lineno))
    return sends, dispatches


def build_protocol_model(project: Project) -> Optional[ProtocolModel]:
    """Returns None when the cluster endpoints are outside the linted
    paths (e.g. ``poem lint --deep src/repro/core``)."""
    vocab: Dict[str, str] = {}
    for rel in _VOCAB_MODULES:
        mi = project.modules.get(rel)
        if mi is not None:
            vocab.update(_collect_vocabulary(mi))
    sides = {"parent": _PARENT_MODULES, "worker": _WORKER_MODULES}
    sends: Dict[str, Dict[str, Tuple[str, int]]] = {}
    dispatches: Dict[str, Dict[str, Tuple[str, int]]] = {}
    present = 0
    for side, rels in sides.items():
        s: Dict[str, Tuple[str, int]] = {}
        d: Dict[str, Tuple[str, int]] = {}
        for rel in rels:
            mi = project.modules.get(rel)
            if mi is None:
                continue
            present += 1
            ms, md = _scan_side(mi, vocab)
            for op, loc in ms.items():
                s.setdefault(op, loc)
            for op, loc in md.items():
                d.setdefault(op, loc)
        sends[side] = s
        dispatches[side] = d
    if present < 2:
        return None
    return ProtocolModel(vocabulary=vocab, sends=sends, dispatches=dispatches)


def protocol_findings(project: Project) -> List[Tuple[Finding, str]]:
    """POEM010 findings: (finding, fingerprint ``op:direction``)."""
    model = build_protocol_model(project)
    if model is None:
        return []
    out: List[Tuple[Finding, str]] = []
    peer = {"parent": "worker", "worker": "parent"}
    for side in ("parent", "worker"):
        other = peer[side]
        for op, (path, line) in sorted(model.sends[side].items()):
            if op not in model.dispatches[other]:
                out.append(
                    (
                        Finding(
                            rule="POEM010",
                            path=path,
                            line=line,
                            col=0,
                            message=(
                                f"control op '{op}' is sent by the "
                                f"{side} but never dispatched by the "
                                f"{other}"
                            ),
                        ),
                        f"proto:{op}:{side}->{other}:undispatched",
                    )
                )
        for op, (path, line) in sorted(model.dispatches[side].items()):
            if (
                op not in model.sends[other]
                and op in model.vocabulary.values()
            ):
                out.append(
                    (
                        Finding(
                            rule="POEM010",
                            path=path,
                            line=line,
                            col=0,
                            message=(
                                f"control op '{op}' has a dispatch arm "
                                f"in the {side} but the {other} never "
                                f"sends it (dead protocol)"
                            ),
                        ),
                        f"proto:{op}:{other}->{side}:unsent",
                    )
                )
    return out

"""Whole-program deep analysis: golden fixtures per rule + the
repo-level acceptance gates.

Fixture tests build a tiny synthetic package in ``tmp_path`` and run
the interprocedural passes over it — bad code must produce the
expected finding, the corrected twin must not, and the suppression /
baseline channels must silence (and account for) accepted findings.
The repo-level tests are the CI contract: ``src/repro`` analyses
clean against the committed baseline, and every lock edge the runtime
detector observes on the seed scenario exists in the static POEM009
graph.
"""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

import pytest

import repro
from repro.lint.callgraph import build_project
from repro.lint.deep import load_baseline, run_deep
from repro.lint.protocheck import build_protocol_model, protocol_findings
from repro.net import messages
from repro.lint.racecheck import race_findings
from repro.lint.staticlocks import (
    build_lock_model,
    check_runtime_consistency,
    static_lock_findings,
)

PKG_ROOT = str(Path(repro.__file__).resolve().parent)


def _write_tree(root: Path, files: dict) -> Path:
    for rel, src in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src))
    return root


# ---------------------------------------------------------------------------
# POEM008 — static shared-state races
# ---------------------------------------------------------------------------

RACY_CLASS = """
    import threading

    class Pump:
        def __init__(self):
            self.level = 0
            self._lock = threading.Lock()
            self.t1 = threading.Thread(target=self.fill)
            self.t2 = threading.Thread(target=self.drain)
            self.t1.start()
            self.t2.start()

        def fill(self):
            self.level = self.level + 1

        def drain(self):
            with self._lock:
                self.level = self.level - 1
"""

SAFE_CLASS = RACY_CLASS.replace(
    "        def fill(self):\n"
    "            self.level = self.level + 1\n",
    "        def fill(self):\n"
    "            with self._lock:\n"
    "                self.level = self.level + 1\n",
)


def test_poem008_two_thread_race_flagged(tmp_path):
    _write_tree(tmp_path, {"pump.py": RACY_CLASS})
    project = build_project([tmp_path])
    pairs = race_findings(project)
    fps = [fp for _, fp in pairs]
    assert "race:pump.Pump.level:parent" in fps
    finding = next(f for f, fp in pairs if fp.startswith("race:pump"))
    assert finding.rule == "POEM008"
    assert "no common lock" in finding.message


def test_poem008_consistent_lock_is_clean(tmp_path):
    _write_tree(tmp_path, {"pump.py": SAFE_CLASS})
    assert race_findings(build_project([tmp_path])) == []


def test_poem008_inline_suppression(tmp_path):
    suppressed = RACY_CLASS.replace(
        "self.level = self.level + 1",
        "self.level = self.level + 1  # poem: ignore[POEM008]",
    )
    _write_tree(tmp_path, {"pump.py": suppressed})
    result = run_deep([tmp_path])
    assert result.clean
    assert result.suppressed >= 1


def test_poem008_lock_guarded_field_kind_exempt(tmp_path):
    # Fields that *are* synchronization primitives never race-report.
    src = """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self.t1 = threading.Thread(target=self.a)
                self.t2 = threading.Thread(target=self.b)

            def a(self):
                self._lock = threading.Lock()

            def b(self):
                self._lock = threading.Lock()
    """
    _write_tree(tmp_path, {"box.py": src})
    assert race_findings(build_project([tmp_path])) == []


# ---------------------------------------------------------------------------
# POEM009 — static lock-order cycles
# ---------------------------------------------------------------------------

AB_BA = """
    import threading

    class Station:
        def __init__(self):
            self.a = threading.Lock()
            self.b = threading.Lock()
            self.t1 = threading.Thread(target=self.forward)
            self.t2 = threading.Thread(target=self.reverse)

        def forward(self):
            with self.a:
                with self.b:
                    pass

        def reverse(self):
            with self.b:
                with self.a:
                    pass
"""


def test_poem009_ab_ba_cycle_flagged(tmp_path):
    _write_tree(tmp_path, {"station.py": AB_BA})
    project = build_project([tmp_path])
    model = build_lock_model(project)
    pairs = static_lock_findings(project, model)
    assert pairs, "AB/BA nesting must produce a static cycle"
    finding, fp = pairs[0]
    assert finding.rule == "POEM009"
    assert fp.startswith("cycle:")


def test_poem009_consistent_order_is_clean(tmp_path):
    consistent = AB_BA.replace(
        "        def reverse(self):\n"
        "            with self.b:\n"
        "                with self.a:\n",
        "        def reverse(self):\n"
        "            with self.a:\n"
        "                with self.b:\n",
    )
    _write_tree(tmp_path, {"station.py": consistent})
    project = build_project([tmp_path])
    model = build_lock_model(project)
    assert static_lock_findings(project, model) == []
    # The nesting edge itself is in the model (a -> b, once).
    assert len(model.edges) == 1


def test_poem009_interprocedural_edge(tmp_path):
    # Nesting through a call: holder() holds A and calls helper(),
    # which takes B — the A->B edge must exist without any syntactic
    # nesting in one function.
    src = """
        import threading

        class Deep:
            def __init__(self):
                self.a = threading.Lock()
                self.b = threading.Lock()
                self.t = threading.Thread(target=self.holder)

            def holder(self):
                with self.a:
                    self.helper()

            def helper(self):
                with self.b:
                    pass
    """
    _write_tree(tmp_path, {"deep.py": src})
    model = build_lock_model(build_project([tmp_path]))
    assert len(model.edges) == 1
    (edge,) = model.edges
    assert edge[0].startswith("deep.py:") and edge[1].startswith("deep.py:")


def test_poem009_runtime_consistency_miss(tmp_path):
    _write_tree(tmp_path, {"station.py": AB_BA})
    project = build_project([tmp_path])
    model = build_lock_model(project)
    # A runtime edge between project locks the static model never saw.
    pairs = check_runtime_consistency(
        project, model, [("station.py:99", "station.py:6")]
    )
    assert pairs and pairs[0][1].startswith("runtime-miss:")


# ---------------------------------------------------------------------------
# POEM010 — cluster-protocol exhaustiveness
# ---------------------------------------------------------------------------

PROTO_COMMON = {
    "net/messages.py": """
        def make_ping():
            return {"op": "ping"}

        def make_pong():
            return {"op": "pong"}
    """,
}

PROTO_DRIFTED = dict(
    PROTO_COMMON,
    **{
        "cluster/sharded.py": """
            from ..net.messages import make_ping

            def drive(conn):
                conn.send(make_ping())
        """,
        "cluster/worker.py": """
            def serve(msg):
                op = msg["op"]
                if op == "shutdown":
                    return None
        """,
    },
)

PROTO_CLEAN = dict(
    PROTO_COMMON,
    **{
        "cluster/sharded.py": """
            from ..net.messages import make_ping

            def drive(conn):
                conn.send(make_ping())
                reply = conn.recv()
                if reply["op"] == "pong":
                    return True
        """,
        "cluster/worker.py": """
            from ..net.messages import make_pong

            def serve(conn, msg):
                op = msg["op"]
                if op == "ping":
                    conn.send(make_pong())
        """,
    },
)


def test_poem010_undispatched_op_flagged(tmp_path):
    _write_tree(tmp_path, PROTO_DRIFTED)
    pairs = protocol_findings(build_project([tmp_path]))
    fps = [fp for _, fp in pairs]
    assert "proto:ping:parent->worker:undispatched" in fps
    finding = next(f for f, _ in pairs)
    assert finding.rule == "POEM010"


def test_poem010_matched_protocol_is_clean(tmp_path):
    _write_tree(tmp_path, PROTO_CLEAN)
    assert protocol_findings(build_project([tmp_path])) == []


def test_poem010_dispatch_through_an_expected_op_parameter(tmp_path):
    # One exchange helper checks every reply against the op its caller
    # expects; the constants bound to that parameter are the dispatch arms.
    tree = dict(PROTO_CLEAN)
    tree["cluster/sharded.py"] = """
        from ..net.messages import make_ping

        class Parent:
            def exchange(self, conn, request, expect):
                conn.send(request)
                reply = conn.recv()
                if reply.get("op") != expect:
                    raise ValueError(reply)

            def drive(self, conn):
                self.exchange(conn, make_ping(), "pong")
    """
    _write_tree(tmp_path, tree)
    assert protocol_findings(build_project([tmp_path])) == []
    # The same helper bound to an op nobody sends is dead protocol.
    tree["cluster/sharded.py"] = tree["cluster/sharded.py"].replace(
        '"pong")', 'expect="ping")'
    )
    _write_tree(tmp_path, tree)
    fps = {fp for _, fp in protocol_findings(build_project([tmp_path]))}
    assert fps == {
        "proto:pong:worker->parent:undispatched",
        "proto:ping:worker->parent:unsent",
    }


def test_poem010_skipped_outside_cluster_scope(tmp_path):
    # Linting a tree without both endpoints must not fabricate drift.
    _write_tree(tmp_path, {"net/messages.py": PROTO_COMMON["net/messages.py"]})
    assert protocol_findings(build_project([tmp_path])) == []


def _op_tables(doc: str) -> list[dict[str, str]]:
    """Each ``=``-ruled op table of a docstring as op -> direction."""
    tables: list[dict[str, str]] = []
    rows = None
    for line in doc.splitlines():
        if line.startswith("=="):
            if rows is None:
                rows = {}
            else:
                tables.append(rows)
                rows = None
        elif rows is not None:
            m = re.match(r"``(\w+)``\s+(\w+(?: → \w+)?)", line)
            if m:
                rows[m[1]] = m[2]
    return tables


def test_cluster_op_table_lists_exactly_the_sent_ops():
    """The cluster op table of :mod:`repro.net.messages` cannot drift
    from the code: per direction it names exactly the ops the protocol
    model sees each endpoint send (the worker's ``bye`` sits in the
    shared client/server table)."""
    model = build_protocol_model(build_project([PKG_ROOT]))
    shared, cluster = _op_tables(messages.__doc__)
    assert shared["bye"] == "either"
    for side, other in (("parent", "worker"), ("worker", "parent")):
        listed = {op for op, d in cluster.items() if d == f"{side} → {other}"}
        if side == "worker":
            listed.add("bye")
        assert listed == set(model.sends[side]), side
    assert set(cluster) | {"bye"} == (
        set(model.sends["parent"]) | set(model.sends["worker"])
    )


# ---------------------------------------------------------------------------
# baseline mechanics
# ---------------------------------------------------------------------------


def test_baseline_matches_and_reports_stale(tmp_path):
    _write_tree(tmp_path, {"pump.py": RACY_CLASS})
    baseline = tmp_path / "accepted.json"
    baseline.write_text(json.dumps({
        "version": 1,
        "entries": [
            {
                "rule": "POEM008",
                "fingerprint": "race:pump.Pump.level:parent",
                "justification": "test fixture",
            },
            {
                "rule": "POEM008",
                "fingerprint": "race:pump.Gone.away:parent",
                "justification": "no longer exists",
            },
        ],
    }))
    result = run_deep([tmp_path], baseline=baseline)
    assert result.clean  # the real finding is baselined...
    assert [fp for _, fp, _ in result.baselined] == [
        "race:pump.Pump.level:parent"
    ]
    assert result.stale == ["race:pump.Gone.away:parent"]  # ...and rot shows


def test_baseline_requires_justification(tmp_path):
    baseline = tmp_path / "bad.json"
    baseline.write_text(json.dumps({
        "version": 1,
        "entries": [{"fingerprint": "race:X.y:parent"}],
    }))
    with pytest.raises(ValueError, match="justification"):
        load_baseline(baseline)


def test_fingerprints_are_line_independent(tmp_path):
    _write_tree(tmp_path, {"pump.py": RACY_CLASS})
    before = {fp for _, fp in race_findings(build_project([tmp_path]))}
    shifted = "# a comment\n# another\n" + textwrap.dedent(RACY_CLASS)
    (tmp_path / "pump.py").write_text(shifted)
    after = {fp for _, fp in race_findings(build_project([tmp_path]))}
    assert before == after


# ---------------------------------------------------------------------------
# repo-level acceptance gates
# ---------------------------------------------------------------------------


def test_repo_deep_analysis_is_clean():
    """src/repro analyses clean against the committed baseline — the
    deep-analysis CI gate (new findings are fixed or justified)."""
    result = run_deep([PKG_ROOT])
    assert result.findings == [], [fp for _, fp in result.findings]
    assert result.stale == [], f"stale baseline entries: {result.stale}"
    # Every baselined entry carries a written justification.
    assert all(just.strip() for _, _, just in result.baselined)


def test_repo_deep_analysis_within_ci_budget():
    """The whole-program pass must stay far inside the 30 s CI budget."""
    result = run_deep([PKG_ROOT])
    assert result.duration < 30.0, f"deep pass took {result.duration:.1f}s"


def test_runtime_edges_subset_of_static_graph():
    """Every lock-order edge the seed scenario exhibits at runtime must
    be predicted by the static POEM009 model (no static blind spots)."""
    from repro.lint.runtime import run_runtime_check

    report = run_runtime_check(nodes=3, duration=3.0)
    project = build_project([PKG_ROOT])
    model = build_lock_model(project)
    pairs = check_runtime_consistency(
        project, model, sorted(report.graph.edges())
    )
    assert pairs == [], [fp for _, fp in pairs]

"""CLI surface + the HEAD-cleanliness acceptance criterion."""

from __future__ import annotations

import json
from pathlib import Path

import repro
from repro.cli import main

PKG_ROOT = str(Path(repro.__file__).resolve().parent)

BAD_SNIPPET = (
    "import threading\n"
    "\n"
    "def boot():\n"
    "    t = threading.Thread(target=loop, daemon=True)\n"
    "    t.start()\n"
)


def test_lint_head_is_clean(capsys):
    """The repo's own source must lint clean — the CI gate."""
    assert main(["lint", PKG_ROOT]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_lint_defaults_to_package_source(capsys):
    assert main(["lint"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_lint_bad_fixture_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "tcpserver.py"  # hot-path basename: rules apply
    bad.write_text(BAD_SNIPPET)
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "POEM001" in out and "hint:" in out


def test_lint_json_format_and_out_file(tmp_path, capsys):
    bad = tmp_path / "tcpserver.py"
    bad.write_text(BAD_SNIPPET)
    report = tmp_path / "findings.json"
    assert main(
        ["lint", str(bad), "--format", "json", "--out", str(report)]
    ) == 1
    doc = json.loads(report.read_text())
    assert doc["clean"] is False
    assert doc["summary"] == {"POEM001": 1}
    assert doc["findings"][0]["path"] == str(bad)


def test_lint_json_clean_doc(tmp_path, capsys):
    good = tmp_path / "fine.py"
    good.write_text("x = 1\n")
    assert main(["lint", str(good), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["clean"] is True and doc["findings"] == []


def test_lint_runtime_flag(tmp_path, capsys):
    good = tmp_path / "fine.py"
    good.write_text("x = 1\n")
    assert main(["lint", str(good), "--runtime", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["runtime"]["cycles"] == []
    assert doc["runtime"]["edges"] > 0
    assert doc["clean"] is True


def test_lint_rejects_non_python_path(tmp_path, capsys):
    other = tmp_path / "notes.txt"
    other.write_text("hello")
    assert main(["lint", str(other)]) == 1
    assert "error:" in capsys.readouterr().err


def test_console_lint_command(capsys):
    from repro.core.server import InProcessEmulator
    from repro.gui.console import PoEmConsole

    console = PoEmConsole(InProcessEmulator(seed=0))
    console.onecmd("lint")
    out = capsys.readouterr().out
    assert "0 findings" in out
    console.onecmd("lint bogus-arg")
    assert "usage: lint" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# --deep / --changed / sarif / exit codes
# ---------------------------------------------------------------------------


def test_lint_deep_head_is_clean(capsys):
    """`poem lint --deep` on the repo source exits 0: every deep finding
    is either fixed or justified in the committed baseline."""
    assert main(["lint", PKG_ROOT, "--deep"]) == 0
    out = capsys.readouterr().out
    assert "deep whole-program analysis:" in out
    assert "clean: no new findings" in out


def test_lint_deep_json_document(capsys):
    assert main(["lint", PKG_ROOT, "--deep", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    deep = doc["deep"]
    assert deep["clean"] is True
    assert deep["functions"] > 500
    # Ceilings as well as floors: a change that grows the lock graph or
    # adds a thread root fails here until the ceiling is raised on purpose.
    assert 20 < deep["static_lock_edges"] <= 56
    # Supervised threads, httpd, worker_main...; the TCP server's data
    # path and scene time are one root, PoEmServer._serve_loop, and each
    # client's socket and protocol timers have one thread,
    # PoEmClient._receive_loop: no timer thread is a root any more.
    assert 0 < len(deep["thread_roots"]) <= 9
    assert "core.client.PoEmClient._receive_loop" in deep["thread_roots"]
    assert ("protocols.base.ThreadTimerService.call_after.wrapper"
            not in deep["thread_roots"])
    assert deep["stale_baseline_entries"] == []
    assert all(e["justification"] for e in deep["baselined"])


def test_lint_deep_finds_synthetic_race(tmp_path, capsys):
    racy = tmp_path / "pump.py"
    racy.write_text(
        "import threading\n"
        "\n"
        "class Pump:\n"
        "    def __init__(self):\n"
        "        self.level = 0\n"
        "        self._lock = threading.Lock()\n"
        "        self.t1 = threading.Thread(target=self.fill)\n"
        "        self.t2 = threading.Thread(target=self.drain)\n"
        "\n"
        "    def fill(self):\n"
        "        self.level = 1\n"
        "\n"
        "    def drain(self):\n"
        "        with self._lock:\n"
        "            self.level = 2\n"
    )
    assert main(["lint", str(tmp_path), "--deep"]) == 1
    out = capsys.readouterr().out
    assert "POEM008" in out and "no common lock" in out


def test_lint_sarif_output(tmp_path):
    bad = tmp_path / "tcpserver.py"
    bad.write_text(BAD_SNIPPET)
    report = tmp_path / "findings.sarif"
    assert main(
        ["lint", str(bad), "--format", "sarif", "--out", str(report)]
    ) == 1
    doc = json.loads(report.read_text())
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "poem-lint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"POEM001", "POEM008", "POEM009", "POEM010"} <= rule_ids
    assert run["results"][0]["ruleId"] == "POEM001"
    region = run["results"][0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1


def test_lint_changed_bad_base_is_usage_error(capsys):
    assert main(["lint", PKG_ROOT, "--changed", "no-such-ref-xyz"]) == 2
    assert "usage error:" in capsys.readouterr().err


def test_lint_changed_filters_findings(tmp_path, capsys):
    # The bad file is NOT in the changed set -> its findings are
    # filtered out and the run reports clean.
    bad = tmp_path / "tcpserver.py"
    bad.write_text(BAD_SNIPPET)
    assert main(["lint", str(bad), "--changed", "HEAD"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_lint_malformed_baseline_is_usage_error(tmp_path, capsys):
    good = tmp_path / "fine.py"
    good.write_text("x = 1\n")
    baseline = tmp_path / "broken.json"
    baseline.write_text('{"entries": [{"fingerprint": "x"}]}')
    rc = main(
        ["lint", str(good), "--deep", "--baseline", str(baseline)]
    )
    assert rc == 2
    assert "justification" in capsys.readouterr().err


def test_console_deep_lint_command(capsys):
    from repro.core.server import InProcessEmulator
    from repro.gui.console import PoEmConsole

    console = PoEmConsole(InProcessEmulator(seed=0))
    console.onecmd("lint deep")
    out = capsys.readouterr().out
    assert "deep whole-program analysis:" in out

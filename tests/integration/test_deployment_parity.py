"""One run summary and one health shape on every deployment.

The run summary and the health verdict are the evidence a user cites,
so they must mean the same thing whether the pipeline ran in-process,
behind the TCP server or on the sharded cluster.  One profiled run of
each — a sender and a receiver in range, one packet — is compared key
by key.
"""

import time

import pytest

from repro.cluster import ShardedEmulator
from repro.core.client import PoEmClient
from repro.core.geometry import Vec2
from repro.core.ids import ChannelId
from repro.core.server import InProcessEmulator
from repro.core.tcpserver import PoEmServer
from repro.models.radio import RadioConfig
from repro.stats.report import build_report

RADIOS = RadioConfig.single(1, 100.0)
CH = ChannelId(1)

TOTALS = {"ingested", "forwarded", "dropped", "transport_dropped"}
CLIENT_KEYS = {"label", "last_seen", "stale", "overflow", "outbox_depth"}
HEALTH_KEYS = {
    "running", "time", "threads", "recent_failures", "clients",
    "quarantined", "engine", "schedule_depth",
}
CORE_HEALTH_KEYS = {"overload", "deadline"}  # where the engine is local
SUMMARY_KEYS = TOTALS | {"sync_samples"}


def run_inproc():
    emu = InProcessEmulator(seed=5, profile_hz=200.0)
    try:
        a = emu.add_node(Vec2(0.0, 0.0), RADIOS, label="a")
        b = emu.add_node(Vec2(10.0, 0.0), RADIOS, label="b")
        a.transmit(b.node_id, b"x", channel=CH)
        emu.run_for(1.0)
        health = emu.health()
    finally:
        emu.shutdown()
    emu.record_run_summary()
    return health, emu.recorder


def run_tcp():
    srv = PoEmServer(seed=5, profile_hz=200.0)
    srv.start()
    clients = [
        PoEmClient(srv.address, Vec2(x, 0.0), RADIOS, label=label,
                   sync_rounds=2)
        for x, label in ((0.0, "a"), (10.0, "b"))
    ]
    try:
        for c in clients:
            c.connect()
        a, b = clients
        a.transmit(b.node_id, b"x", channel=CH)
        deadline = time.monotonic() + 10.0
        while not b.received and time.monotonic() < deadline:
            time.sleep(0.01)
        assert b.received
        health = srv.health()
    finally:
        for c in clients:
            c.close()
        srv.stop()  # records the summary
    return health, srv.recorder


def run_sharded():
    emu = ShardedEmulator(n_workers=1, seed=5, profile_hz=200.0)
    a = emu.add_node(Vec2(0.0, 0.0), RADIOS, label="a")
    b = emu.add_node(Vec2(10.0, 0.0), RADIOS, label="b")
    with emu:
        a.transmit(b.node_id, b"x", channel=CH, t=0.0)
        emu.flush(1.0)
        emu.collect()
        health = emu.health()
    emu.record_run_summary()
    return health, emu.recorder


@pytest.fixture(scope="module")
def runs():
    return {
        "inproc": run_inproc(), "tcp": run_tcp(), "sharded": run_sharded(),
    }


@pytest.mark.parametrize("name", ["inproc", "tcp", "sharded"])
def test_health_has_the_common_shape(runs, name):
    health, _ = runs[name]
    assert HEALTH_KEYS <= set(health)
    assert set(health["engine"]) == TOTALS
    assert health["engine"]["ingested"] == 1
    assert health["engine"]["forwarded"] == 1
    assert len(health["clients"]) == 2
    for client in health["clients"].values():
        assert set(client) == CLIENT_KEYS
    assert isinstance(health["quarantined"], dict)
    assert isinstance(health["threads"], dict)
    assert isinstance(health["recent_failures"], list)


def test_engine_owning_shells_report_the_same_core_sections(runs):
    inproc, tcp = runs["inproc"][0], runs["tcp"][0]
    assert set(inproc) == set(tcp) == HEALTH_KEYS | CORE_HEALTH_KEYS
    for section in ("engine", "overload", "deadline"):
        assert set(inproc[section]) == set(tcp[section])
    assert "cluster" in runs["sharded"][0]


def test_every_deployment_reports_one_fidelity_verdict(runs):
    inproc = runs["inproc"][0]["deadline"]
    for health, recorder in runs.values():
        summary = recorder.scene_events()[-1].details
        report = build_report(recorder)
        recorded = (
            report.deadline_on_time, report.deadline_late,
            report.deadline_missed,
        )
        for deadline in (health["deadline"], summary["deadline"]):
            assert set(deadline) == set(inproc)
            assert deadline["verdict"] == "real-time"
            assert deadline["on_time"] == 1
            live = (deadline["on_time"], deadline["late"], deadline["missed"])
            assert live == recorded


def test_shard_workers_sample_the_core_sections(runs):
    health = runs["sharded"][0]
    (worker,) = health["cluster"]["per_worker"]
    assert set(worker["overload"]) == set(runs["inproc"][0]["overload"])
    assert worker["deadline"] == health["deadline"]
    assert "overload" not in health


@pytest.mark.parametrize("name", ["inproc", "tcp", "sharded"])
def test_profiled_run_ends_on_profile_then_run_summary(runs, name):
    _, recorder = runs[name]
    events = [e for e in recorder.scene_events() if int(e.node) == -1]
    kinds = [e.kind for e in events]
    assert kinds.count("profile") == 1 and kinds.count("run-summary") == 1
    assert kinds[-2:] == ["profile", "run-summary"]
    details = events[-1].details
    assert SUMMARY_KEYS <= set(details)
    assert details["ingested"] == details["forwarded"] == 1
    assert details["sync_samples"] == len(recorder.sync_samples()) >= 2


def test_run_summary_keys_match_across_deployments(runs):
    summary = {
        name: set(recorder.scene_events()[-1].details)
        for name, (_, recorder) in runs.items()
    }
    assert summary["inproc"] == summary["tcp"]
    assert summary["inproc"] == SUMMARY_KEYS | CORE_HEALTH_KEYS
    assert summary["sharded"] == SUMMARY_KEYS | {"cluster", "deadline"}

"""Acceptance tests for the continuous profiling & timeline plane on a
real multi-process cluster: one merged collapsed-stack profile covering
the parent and every worker, and a Perfetto timeline with one pid lane
per shard plus visible shard-hop flows.

These spawn real worker processes (small loads — 1-core CI boxes run
them too).
"""

import json

from repro.cluster import ShardedEmulator
from repro.core.geometry import Vec2
from repro.core.ids import ChannelId
from repro.models.radio import RadioConfig
from repro.obs import profiler as profiler_mod
from repro.obs.telemetry import Telemetry
from repro.obs.timeline import (
    PARENT_PID,
    timeline_from_dataset,
    write_timeline,
)

RADIOS = RadioConfig.single(1, 200.0)

#: High sampling rate so short CI runs still catch every process.
PROFILE_HZ = 400.0


def _profiled_cluster_run(n_workers=4, n_nodes=8, rounds=30):
    """A small ring-traffic run with profiling + full tracing on.

    ``sample_every=1``: the round-robin script hits the same nodes
    every round, so any sparser stride can leave whole shards spanless.
    Returns the stopped emulator (profile and recorder stay readable).
    """
    emu = ShardedEmulator(
        n_workers=n_workers,
        seed=3,
        telemetry=Telemetry(sample_every=1),
        profile_hz=PROFILE_HZ,
    )
    hosts = [
        emu.add_node(Vec2(60.0 * i, 0.0), RADIOS, label=f"p{i}")
        for i in range(n_nodes)
    ]
    emu.start()
    try:
        for rnd in range(rounds):
            for i, host in enumerate(hosts):
                host.transmit(
                    hosts[(i + 1) % n_nodes].node_id,
                    b"x" * 32,
                    channel=ChannelId(1),
                    t=0.01 * (rnd + 1) + 0.001 * i,
                )
            emu.flush(0.01 * (rnd + 1) + 0.5)
        emu.collect()
        emu.record_run_summary()
    finally:
        emu.stop()
    return emu


class TestMergedClusterProfile:
    def test_one_profile_covers_parent_and_every_worker(self, tmp_path):
        emu = _profiled_cluster_run()

        folded = emu.profiler.folded()
        roots = {key.split(";", 1)[0] for key in folded}
        assert roots == {
            "parent", "worker-0", "worker-1", "worker-2", "worker-3"
        }
        # Thread idents resolved to names, not numeric tids.
        threads = {key.split(";")[1] for key in folded}
        assert "MainThread" in threads
        assert not any(t.startswith("tid-") for t in threads)

        # The collapsed export is flamegraph.pl input: "stack count".
        collapsed = emu.profile_collapsed()
        for line in collapsed.rstrip("\n").splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1 and ";" in stack

        # The run persisted exactly one merged profile scene event.
        profiles = [
            e for e in emu.recorder.scene_events() if e.kind == "profile"
        ]
        assert len(profiles) == 1
        assert profiles[0].details["stacks"]

        # stop() released the process-default profiler slot.
        assert profiler_mod.get_default() is None

    def test_timeline_has_a_lane_per_shard_and_hop_flows(self, tmp_path):
        emu = _profiled_cluster_run()

        timeline = timeline_from_dataset(
            emu.recorder, profiler=emu.profiler
        )
        path = write_timeline(tmp_path / "timeline.json", timeline)
        doc = json.loads((tmp_path / "timeline.json").read_text())
        assert path.endswith("timeline.json")

        events = doc["traceEvents"]
        pids = {e["pid"] for e in events}
        # Parent lane + one distinct lane per shard.
        assert pids == {PARENT_PID, 2, 3, 4, 5}

        # Parent keeps the encode stage; worker stages land on shards.
        encode_pids = {
            e["pid"] for e in events if e.get("name") == "ipc_encode"
        }
        assert encode_pids == {PARENT_PID}
        queue_pids = {
            e["pid"] for e in events if e.get("name") == "ipc_queue"
        }
        assert queue_pids == {2, 3, 4, 5}

        # Shard hops are drawn as start/finish flow pairs.
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert starts and len(starts) == len(finishes)
        assert all(e["name"] == "shard-hop" for e in starts)
        assert {e["pid"] for e in starts} == {PARENT_PID}
        assert {e["pid"] for e in finishes} == {2, 3, 4, 5}

        # Profiler samples ride along as instants, and every process
        # lane is named via metadata.
        assert any(e.get("cat") == "sample" for e in events)
        lane_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert lane_names == {
            "parent", "shard-0", "shard-1", "shard-2", "shard-3"
        }

    def test_health_reports_profiler_state(self):
        emu = ShardedEmulator(n_workers=1, seed=0, profile_hz=PROFILE_HZ)
        emu.add_node(Vec2(0, 0), RADIOS, label="a")
        emu.start()
        try:
            health = emu.health()
            prof = health["cluster"]["profiler"]
            assert prof["hz"] == PROFILE_HZ
        finally:
            emu.stop()

    def test_profiling_off_by_default(self):
        emu = ShardedEmulator(n_workers=1, seed=0)
        assert emu.profiler is None
        emu.add_node(Vec2(0, 0), RADIOS, label="a")
        emu.start()
        try:
            assert emu.health()["cluster"]["profiler"] is None
            assert emu.profile_collapsed() == ""
        finally:
            emu.stop()
        # No profile scene event recorded for unprofiled runs.
        emu.record_run_summary()
        kinds = {e.kind for e in emu.recorder.scene_events()}
        assert "profile" not in kinds

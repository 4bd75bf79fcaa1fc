"""Tests for the wall-clock sampling profiler (repro/obs/profiler.py)."""

import threading
import time

import pytest

from repro.core.supervision import SupervisedThread
from repro.obs import profiler as profiler_mod
from repro.obs.profiler import (
    ProfileMerger,
    SamplingProfiler,
    format_profile,
    merge_folded,
    summarize_folded,
)


@pytest.fixture(autouse=True)
def _no_default_profiler():
    """Keep the process-default slot clean across tests."""
    before = profiler_mod.get_default()
    profiler_mod.set_default(None)
    yield
    profiler_mod.set_default(before)


def _busy_thread(stop: threading.Event, name: str = "poem-test-busy"):
    def spin():
        while not stop.is_set():
            sum(range(200))

    return SupervisedThread(name, spin, restartable=False).start()


class TestSampling:
    def test_sample_once_names_supervised_threads(self):
        prof = SamplingProfiler(role="r")
        stop = threading.Event()
        t = _busy_thread(stop)
        try:
            captured = prof.sample_once()
        finally:
            stop.set()
            t.stop(timeout=2.0)
        assert captured >= 2  # main + the busy thread at least
        folded = prof.folded()
        assert folded  # something was recorded
        # Every key is rooted role;thread;frames...
        for key in folded:
            parts = key.split(";")
            assert parts[0] == "r"
            assert len(parts) >= 3
        assert any(";poem-test-busy;" in k for k in folded)
        assert any(";MainThread;" in k for k in folded)

    def test_continuous_sampling_and_stop(self):
        prof = SamplingProfiler(hz=250.0, role="r")
        prof.start()
        assert prof.running
        stop = threading.Event()
        t = _busy_thread(stop)
        try:
            deadline = time.monotonic() + 5.0
            while prof.samples < 5 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            stop.set()
            t.stop(timeout=2.0)
            prof.stop()
        assert not prof.running
        assert prof.samples >= 5
        assert prof.errors == 0
        # The profile survives stop(), and start() is idempotent-safe.
        assert prof.folded()
        before = prof.samples
        prof.start()
        prof.stop()
        assert prof.samples >= before

    def test_stack_table_is_bounded(self):
        prof = SamplingProfiler(role="r", max_stacks=4)
        # Force-feed synthetic keys through the public sampling path by
        # folding a remote table larger than the bound is *merge* side;
        # the local bound is exercised via sample_once with the table
        # pre-filled to the cap.
        with prof._lock:
            for i in range(4):
                prof._stacks[f"r;fake;frame{i}"] = 1
        prof.sample_once()
        folded = prof.folded()
        overflow = [k for k in folded if k.endswith("(other)")]
        assert prof.dropped_stacks >= 1
        assert overflow and all(k.count(";") == 2 for k in overflow)

    def test_overload_gating_pauses_sampler(self):
        class Shedding:
            allow_tracing = False

        prof = SamplingProfiler(hz=500.0, role="r", overload=Shedding())
        prof.start()
        try:
            deadline = time.monotonic() + 5.0
            while prof.paused < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            prof.stop()
        assert prof.paused >= 3
        assert prof.samples == 0  # every pass was shed
        assert prof.folded() == {}

    def test_collapsed_format(self):
        prof = SamplingProfiler(role="r")
        prof.sample_once()
        text = prof.collapsed()
        assert text.endswith("\n")
        for line in text.rstrip("\n").splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert stack.startswith("r;")

    def test_snapshot_is_json_safe_and_top_bounded(self):
        import json

        prof = SamplingProfiler(role="r")
        for _ in range(3):
            prof.sample_once()
        snap = prof.snapshot(top=2)
        json.dumps(snap)  # must not raise
        assert snap["role"] == "r"
        assert snap["samples"] == 3
        assert len(snap["stacks"]) <= 2

    def test_overhead_fraction_is_small(self):
        prof = SamplingProfiler(hz=97.0, role="r")
        prof.start()
        time.sleep(0.25)
        prof.stop()
        # The docs promise well under 1% of one core at the default
        # rate; give slow CI 10x headroom.
        assert prof.overhead_fraction() < 0.10


class TestMergeAndDefault:
    def test_profile_merger_deltas_cumulative_tables(self):
        sink: dict = {}
        merger = ProfileMerger(sink)
        merger.fold("w0", {"w0;MainThread;f": 5})
        merger.fold("w0", {"w0;MainThread;f": 8})  # cumulative resend
        assert sink == {"w0;MainThread;f": 8}
        # A restarted process counts from zero once its owner forgets it.
        merger.forget("w0")
        merger.fold("w0", {"w0;MainThread;f": 12})
        assert sink == {"w0;MainThread;f": 20}
        # Distinct sources never collide.
        merger.fold("w1", {"w1;MainThread;f": 3})
        assert sink["w1;MainThread;f"] == 3

    def test_fold_remote_merges_into_folded(self):
        prof = SamplingProfiler(role="parent")
        prof.fold_remote("w0", {"stacks": {"worker-0;MainThread;f": 4}})
        prof.fold_remote("w0", {"stacks": {"worker-0;MainThread;f": 6}})
        prof.fold_remote("w0", None)  # missing profile: ignored
        prof.fold_remote("w0", {})  # empty: ignored
        assert prof.folded()["worker-0;MainThread;f"] == 6

    def test_merge_folded_helper(self):
        into = {"a;t;f": 1}
        merge_folded(into, {"a;t;f": 2, "b;t;g": 3})
        assert into == {"a;t;f": 3, "b;t;g": 3}

    def test_summarize_and_format(self):
        table = {
            "p;main;mod.a;mod.b": 6,
            "p;main;mod.a;mod.c": 2,
            "p;aux;mod.d": 2,
        }
        summary = summarize_folded(table)
        assert summary["p;main"]["samples"] == 8
        assert summary["p;main"]["self"]["mod.b"] == 6
        assert summary["p;aux"]["samples"] == 2
        text = format_profile(table)
        assert "10 samples" in text
        assert "p;main" in text and "mod.b" in text

    def test_format_profile_empty(self):
        assert "no samples" in format_profile({})

    def test_default_slot(self):
        prof = SamplingProfiler(role="r")
        assert profiler_mod.get_default() is None
        profiler_mod.set_default(prof)
        assert profiler_mod.get_default() is prof
        profiler_mod.set_default(None)
        assert profiler_mod.get_default() is None

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)

"""Snapshot→merge codec tests: the cluster's worker-telemetry export.

The core property: running a workload split across K worker registries
and folding their snapshots into a parent must equal running the same
workload on a single registry — exactly, for counter values and
histogram bucket counts.  Plus the delta discipline (repeated folds
never double-count, forgotten restarts count in full) and a
merge-under-fold race.
"""

import random
import threading

import pytest

from repro.obs.metrics import MetricsRegistry, SnapshotMerger

BUCKETS = (0.001, 0.01, 0.1, 1.0)


def make_ops(seed: int, n: int) -> list[tuple]:
    """A deterministic pseudo-random workload: counter incs, labelled
    counter incs, and histogram observations."""
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.4:
            ops.append(("counter", "poem_ops_total", rng.randint(1, 5)))
        elif roll < 0.7:
            ops.append(
                ("labelled", "poem_drops_total",
                 rng.choice(["loss", "range", "overflow"]),
                 rng.randint(1, 3))
            )
        else:
            ops.append(
                ("hist", "poem_lag_seconds", rng.uniform(0.0, 2.0))
            )
    return ops


def apply_op(registry: MetricsRegistry, op: tuple) -> None:
    if op[0] == "counter":
        registry.counter(op[1]).inc(op[2])
    elif op[0] == "labelled":
        registry.counter(op[1], labels=("reason",)).labels(op[2]).inc(op[3])
    else:
        registry.histogram(op[1], buckets=BUCKETS).observe(op[2])


def additive_state(registry: MetricsRegistry) -> dict:
    """Every counter value and histogram (counts, count) keyed by
    (name, labels) — the parts that must merge additively.  Histogram
    sums are floats accumulated in different orders across processes,
    so they are compared separately with an approx."""
    out = {}
    snap = registry.snapshot()
    for name, family in snap["metrics"].items():
        for sample in family["samples"]:
            key = (name, tuple(sorted(sample["labels"].items())))
            if family["kind"] == "histogram":
                out[key] = ("hist", tuple(sample["counts"]),
                            sample["count"])
            elif family["kind"] == "counter":
                out[key] = ("counter", sample["value"])
    return out


class TestMergeEqualsSingleProcess:
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    @pytest.mark.parametrize("n_workers", [1, 3, 4])
    def test_split_run_merges_to_single_run(self, seed, n_workers):
        ops = make_ops(seed, 400)

        single = MetricsRegistry()
        for op in ops:
            apply_op(single, op)

        workers = [MetricsRegistry() for _ in range(n_workers)]
        for i, op in enumerate(ops):
            apply_op(workers[i % n_workers], op)

        parent = MetricsRegistry()
        merger = SnapshotMerger(parent)
        for idx, w in enumerate(workers):
            merger.fold(idx, w.snapshot())

        assert additive_state(parent) == additive_state(single)
        assert merger.skipped_samples == 0

    def test_incremental_folds_equal_one_fold(self):
        """Folding a worker after every chunk (the barrier + periodic
        pull cadence) must land the same totals as one final fold —
        the delta bookkeeping at work."""
        ops = make_ops(99, 300)

        worker = MetricsRegistry()
        parent = MetricsRegistry()
        merger = SnapshotMerger(parent)
        for i, op in enumerate(ops):
            apply_op(worker, op)
            if i % 37 == 0:  # frequent, uneven folds
                merger.fold(0, worker.snapshot())
        merger.fold(0, worker.snapshot())
        # Fold the final snapshot again: a pure no-op under deltas.
        merger.fold(0, worker.snapshot())

        assert additive_state(parent) == additive_state(worker)

    def test_histogram_sum_merges(self):
        worker = MetricsRegistry()
        h = worker.histogram("poem_lag_seconds", buckets=BUCKETS)
        for v in (0.005, 0.05, 0.5):
            h.observe(v)
        parent = MetricsRegistry()
        SnapshotMerger(parent).fold("w", worker.snapshot())
        counts, total, n = parent.get("poem_lag_seconds").folded()
        assert n == 3
        assert total == pytest.approx(0.555)

    def test_counter_restart_reinjects_full_value(self):
        """The owner forgets a restarted source, so the new process's
        count folds in whole — also when it already exceeds the old."""
        for before, after in ((10, 3), (3, 12)):
            parent = MetricsRegistry()
            merger = SnapshotMerger(parent)
            worker = MetricsRegistry()
            worker.counter("poem_ops_total").inc(before)
            merger.fold(0, worker.snapshot())
            merger.forget(0)
            worker = MetricsRegistry()  # the restarted worker's registry
            worker.counter("poem_ops_total").inc(after)
            merger.fold(0, worker.snapshot())
            assert parent.get("poem_ops_total").value() == before + after

    def test_gauges_land_as_per_shard_series(self):
        parent = MetricsRegistry()
        merger = SnapshotMerger(parent)
        for idx, depth in ((0, 4.0), (1, 9.0)):
            w = MetricsRegistry()
            w.gauge("poem_queue_depth").set(depth)
            merger.fold(idx, w.snapshot())
        text = parent.render()
        assert 'poem_queue_depth{shard="0"} 4' in text
        assert 'poem_queue_depth{shard="1"} 9' in text

    def test_bucket_layout_mismatch_is_skipped_not_fatal(self):
        parent = MetricsRegistry()
        parent.histogram("poem_lag_seconds", buckets=(1.0, 2.0))
        worker = MetricsRegistry()
        worker.histogram("poem_lag_seconds", buckets=BUCKETS).observe(0.5)
        merger = SnapshotMerger(parent)
        merger.fold(0, worker.snapshot())
        assert merger.skipped_samples == 1
        counts, total, n = parent.get("poem_lag_seconds").folded()
        assert n == 0

    def test_kind_conflict_is_skipped_not_fatal(self):
        parent = MetricsRegistry()
        parent.gauge("poem_thing")
        worker = MetricsRegistry()
        worker.counter("poem_thing").inc(1)
        worker.counter("poem_ok_total").inc(2)
        merger = SnapshotMerger(parent)
        merger.fold(0, worker.snapshot())
        assert merger.skipped_samples == 1
        assert parent.get("poem_ok_total").value() == pytest.approx(2.0)


class TestMergeUnderConcurrency:
    def test_fold_races_local_increments(self):
        """The parent's own hot path keeps incrementing the very
        counters and histograms a concurrent fold is merging into —
        totals must still come out exact."""
        parent = MetricsRegistry()
        merger = SnapshotMerger(parent)
        counter = parent.counter("poem_ops_total")
        hist = parent.histogram("poem_lag_seconds", buckets=BUCKETS)

        n_workers, per_snap, rounds, local = 4, 50, 20, 2000
        snapshots = []
        for w in range(n_workers):
            reg = MetricsRegistry()
            series = []
            for _ in range(rounds):
                reg.counter("poem_ops_total").inc(per_snap)
                for _ in range(per_snap):
                    reg.histogram(
                        "poem_lag_seconds", buckets=BUCKETS
                    ).observe(0.05)
                series.append(reg.snapshot())
            snapshots.append(series)

        start = threading.Barrier(n_workers + 1)

        def folder(idx: int) -> None:
            start.wait()
            for snap in snapshots[idx]:
                merger.fold(idx, snap)

        def writer() -> None:
            start.wait()
            for _ in range(local):
                counter.inc()
                hist.observe(0.5)

        threads = [
            threading.Thread(target=folder, args=(w,))
            for w in range(n_workers)
        ] + [threading.Thread(target=writer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        expected = n_workers * rounds * per_snap + local
        assert counter.value() == pytest.approx(float(expected))
        counts, total, n = hist.folded()
        assert n == expected
        assert sum(counts) == expected

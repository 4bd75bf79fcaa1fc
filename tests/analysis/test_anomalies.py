"""Unit tests for the anomaly catalog and windowed aggregates.

Each detector is exercised against a synthetic :class:`RunDataset`
built directly from records — no emulator run needed — so thresholds
and edge cases can be pinned exactly.
"""

import pytest

from repro.analysis.aggregates import windowed_aggregates
from repro.analysis.anomalies import (
    ANOMALY_KINDS,
    Thresholds,
    detect_anomalies,
    detect_clock_drift,
    detect_drop_storms,
    detect_reordering,
    detect_scheduler_lag,
    detect_timestamp_inversions,
)
from repro.analysis import RunDataset
from repro.core.clock import SyncSample
from repro.core.packet import PacketRecord
from repro.errors import AnalysisError
from repro.obs.tracing import TraceSpan


def rec(
    i,
    *,
    t=0.0,
    source=1,
    seqno=None,
    sender=None,
    receiver=2,
    channel=1,
    drop=None,
    t_origin=None,
    t_delivered=None,
    size_bits=1000,
):
    delivered = t_delivered if t_delivered is not None else (
        None if drop else t + 0.01
    )
    return PacketRecord(
        record_id=i,
        seqno=seqno if seqno is not None else i,
        source=source,
        destination=receiver,
        sender=sender if sender is not None else source,
        receiver=None if drop == "not-neighbor" else receiver,
        channel=channel,
        kind="data",
        size_bits=size_bits,
        t_origin=t_origin if t_origin is not None else t,
        t_receipt=t,
        t_forward=None if drop else t + 0.005,
        t_delivered=None if drop else delivered,
        drop_reason=drop,
    )


def span(lag, *, trace_id=1, source=1, seqno=1):
    return TraceSpan(
        trace_id=trace_id, source=source, seqno=seqno, channel=1,
        sender=source, receiver=2, t_start=0.0, outcome="delivered",
        stages=(("receive", 1e-5), ("send", 1e-5)),
        t_forward=0.1, lag=lag,
    )


def sync(node, offset, t_server, *, residual=0.0):
    return SyncSample(
        node=node, label=f"n{node}", offset=offset, delay=1e-4,
        t_server=t_server, t_client=t_server - offset,
        cause="resync", residual=residual,
    )


def dataset(packets=(), spans=(), syncs=(), events=()):
    return RunDataset(list(packets), list(events), list(spans), list(syncs))


# ---------------------------------------------------------------------------
# scheduler-lag
# ---------------------------------------------------------------------------


class TestSchedulerLag:
    def test_quiet_run_yields_nothing(self):
        ds = dataset(spans=[span(0.001), span(0.002), span(None)])
        assert detect_scheduler_lag(ds, Thresholds()) == []

    def test_spikes_aggregate_into_one_finding(self):
        ds = dataset(spans=[span(0.050), span(0.020), span(0.001)])
        (a,) = detect_scheduler_lag(ds, Thresholds(lag_budget=0.010))
        assert a.kind == "scheduler-lag"
        assert a.severity == "warning"
        assert a.data["spikes"] == 2
        assert a.data["worst_lag"] == pytest.approx(0.050)

    def test_worst_over_ten_budgets_is_critical(self):
        ds = dataset(spans=[span(0.5)])
        (a,) = detect_scheduler_lag(ds, Thresholds(lag_budget=0.010))
        assert a.severity == "critical"


# ---------------------------------------------------------------------------
# timestamp-inversion
# ---------------------------------------------------------------------------


class TestTimestampInversion:
    def test_stamp_ahead_of_receipt_flags_source(self):
        # Origin 10 ms after receipt, no sync history to explain it.
        ds = dataset(packets=[rec(1, t=1.0, t_origin=1.010)])
        (a,) = detect_timestamp_inversions(ds, Thresholds())
        assert a.kind == "timestamp-inversion"
        assert a.severity == "critical"
        assert "node 1" in a.subject
        assert a.data["worst_excess"] == pytest.approx(0.010)

    def test_sync_explained_offset_is_not_flagged(self):
        # The client stamps 10 ms ahead, but its sync residual records
        # exactly that error — correction cancels it.
        ds = dataset(
            packets=[rec(1, t=1.0, t_origin=1.010)],
            syncs=[sync(1, offset=-0.010, t_server=0.5, residual=-0.010)],
        )
        assert detect_timestamp_inversions(ds, Thresholds()) == []

    def test_tolerance_is_respected(self):
        ds = dataset(packets=[rec(1, t=1.0, t_origin=1.0005)])
        assert detect_timestamp_inversions(
            ds, Thresholds(inversion_tolerance=0.001)
        ) == []


# ---------------------------------------------------------------------------
# drop-storm
# ---------------------------------------------------------------------------


class TestDropStorm:
    def test_storm_in_one_window(self):
        packets = [rec(i, t=0.1 * i, drop="loss-model") for i in range(1, 7)]
        packets += [rec(i, t=5.0 + 0.1 * i) for i in range(7, 13)]
        ds = dataset(packets=packets)
        findings = detect_drop_storms(ds, Thresholds(window=1.0))
        assert len(findings) == 1
        a = findings[0]
        assert a.kind == "drop-storm"
        assert a.severity == "critical"  # 100% loss
        assert a.data["flavor"] == "medium"
        assert a.data["rate"] == pytest.approx(1.0)

    def test_transport_and_medium_reported_separately(self):
        packets = [
            rec(i, t=0.01 * i, drop="node-stale") for i in range(1, 6)
        ] + [
            rec(i, t=0.01 * i, drop="loss-model") for i in range(6, 11)
        ]
        ds = dataset(packets=packets)
        findings = detect_drop_storms(
            ds, Thresholds(storm_loss_rate=0.4)
        )
        flavors = sorted(a.data["flavor"] for a in findings)
        assert flavors == ["medium", "transport"]

    def test_below_min_offered_is_ignored(self):
        ds = dataset(packets=[rec(1, t=0.0, drop="loss-model")])
        assert detect_drop_storms(ds, Thresholds()) == []


# ---------------------------------------------------------------------------
# reordering
# ---------------------------------------------------------------------------


class TestReordering:
    def test_inverted_delivery_order(self):
        ds = dataset(packets=[
            rec(1, t=0.0, seqno=1, t_delivered=0.5),
            rec(2, t=0.1, seqno=2, t_delivered=0.2),  # overtakes seq 1
            rec(3, t=0.2, seqno=3, t_delivered=0.6),
        ])
        (a,) = detect_reordering(ds)
        assert a.kind == "reordering"
        assert a.data["inversions"] == 1
        assert "1->2" in a.subject

    def test_in_order_flow_is_clean(self):
        ds = dataset(packets=[
            rec(i, t=0.1 * i, seqno=i, t_delivered=0.1 * i + 0.01)
            for i in range(1, 6)
        ])
        assert detect_reordering(ds) == []


# ---------------------------------------------------------------------------
# clock-drift
# ---------------------------------------------------------------------------


class TestClockDrift:
    def test_drifting_client_is_flagged(self):
        # 5 ms/s drift sampled over 4 s -> projected error ~20 ms.
        syncs = [sync(3, offset=-0.005 * t, t_server=t)
                 for t in (0.0, 1.0, 2.0, 3.0, 4.0)]
        ds = dataset(syncs=syncs)
        (a,) = detect_clock_drift(ds, Thresholds(drift_budget=0.004))
        assert a.kind == "clock-drift"
        assert a.data["node"] == 3
        assert a.data["rate"] == pytest.approx(-0.005, rel=1e-6)

    def test_stable_client_is_clean(self):
        syncs = [sync(3, offset=0.0001, t_server=t)
                 for t in (0.0, 1.0, 2.0)]
        ds = dataset(syncs=syncs)
        assert detect_clock_drift(ds, Thresholds()) == []


# ---------------------------------------------------------------------------
# detect_anomalies orchestration
# ---------------------------------------------------------------------------


class TestDetectAnomalies:
    def test_critical_sorts_first_and_kinds_are_known(self):
        packets = [rec(i, t=0.01 * i, drop="loss-model")
                   for i in range(1, 7)]
        syncs = [sync(3, offset=-0.02 * t, t_server=t)
                 for t in (0.0, 1.0, 2.0)]
        ds = dataset(packets=packets, spans=[span(0.020)], syncs=syncs)
        findings = detect_anomalies(ds)
        assert findings
        severities = [a.severity for a in findings]
        assert severities == sorted(
            severities, key=lambda s: 0 if s == "critical" else 1
        )
        assert all(a.kind in ANOMALY_KINDS for a in findings)
        for a in findings:
            d = a.as_dict()
            assert d["kind"] == a.kind and "data" in d

    def test_empty_dataset_is_clean(self):
        assert detect_anomalies(dataset()) == []


# ---------------------------------------------------------------------------
# windowed aggregates
# ---------------------------------------------------------------------------


class TestWindowedAggregates:
    def test_throughput_and_loss_split(self):
        packets = [
            rec(1, t=0.1, size_bits=8000),
            rec(2, t=0.2, size_bits=8000),
            rec(3, t=0.3, drop="loss-model"),
            rec(4, t=0.4, drop="transport-overflow"),
        ]
        ds = dataset(packets=packets)
        (b,) = windowed_aggregates(ds, window=1.0)
        assert b.offered == 4
        assert b.delivered == 2
        assert b.medium_drops == 1 and b.transport_drops == 1
        assert b.loss_rate == pytest.approx(0.5)
        assert b.throughput_bps == pytest.approx(16000.0)

    def test_delay_and_jitter(self):
        packets = [
            rec(1, t=0.0, t_origin=0.0, t_delivered=0.010),
            rec(2, t=0.1, t_origin=0.1, t_delivered=0.130),
        ]
        ds = dataset(packets=packets)
        (b,) = windowed_aggregates(ds, window=1.0)
        assert b.mean_delay == pytest.approx(0.020)
        assert b.jitter == pytest.approx(0.020)

    def test_windows_partition_time(self):
        packets = [rec(i, t=float(i)) for i in range(4)]
        ds = dataset(packets=packets)
        buckets = windowed_aggregates(ds, window=2.0)
        assert len(buckets) == 2
        assert all(b.offered == 2 for b in buckets)
        assert buckets[0].t1 == pytest.approx(buckets[1].t0)

    def test_bad_inputs_raise(self):
        ds = dataset(packets=[rec(1)])
        with pytest.raises(AnalysisError):
            windowed_aggregates(ds, window=0.0)

    def test_as_dict_round(self):
        ds = dataset(packets=[rec(1, t=0.0)])
        (b,) = windowed_aggregates(ds)
        d = b.as_dict()
        assert d["group"] == 1
        assert d["offered"] == 1

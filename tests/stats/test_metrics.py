"""Tests for repro.stats.metrics."""

import numpy as np
import pytest

from repro.core.packet import PacketRecord
from repro.errors import ConfigurationError
from repro.stats.metrics import (
    latency_stats,
    loss_rate_from_logs,
    stamp_errors,
)


def rec(i, *, t_origin, drop=None, kind="data", src=1, dst=3, bits=1000,
        receiver=3, t_delivered=None, t_receipt=None):
    if t_receipt is None:
        t_receipt = t_origin
    if t_delivered is None and drop is None:
        t_delivered = t_origin + 0.01
    return PacketRecord(
        record_id=i, seqno=i, source=src, destination=dst, sender=src,
        receiver=receiver, channel=1, kind=kind, size_bits=bits,
        t_origin=t_origin, t_receipt=t_receipt, t_forward=t_origin + 0.01,
        t_delivered=t_delivered, drop_reason=drop,
    )


class TestLossRateFromLogs:
    def test_end_to_end(self):
        sent = [(0.1, 1), (0.2, 2), (1.1, 3), (1.9, 4)]
        received = {1, 3}
        series = loss_rate_from_logs(sent, received, 0.0, 2.0, 1.0)
        assert series.v[0] == pytest.approx(0.5)
        assert series.v[1] == pytest.approx(0.5)

    def test_all_received(self):
        series = loss_rate_from_logs([(0.5, 1)], {1}, 0.0, 1.0, 1.0)
        assert series.v[0] == 0.0

    def test_out_of_interval_ignored(self):
        series = loss_rate_from_logs([(5.0, 1)], set(), 0.0, 1.0, 1.0)
        assert np.isnan(series.v[0])

    def test_bad_window(self):
        with pytest.raises(ConfigurationError):
            loss_rate_from_logs([], set(), 0.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            loss_rate_from_logs([], set(), 1.0, 1.0, 0.5)


class TestLatency:
    def test_summary(self):
        records = [
            rec(1, t_origin=0.0, t_delivered=0.1),
            rec(2, t_origin=0.0, t_delivered=0.3),
        ]
        stats = latency_stats(records)
        assert stats.count == 2
        assert stats.mean == pytest.approx(0.2)
        assert stats.maximum == pytest.approx(0.3)

    def test_empty(self):
        assert latency_stats([]) is None
        assert latency_stats([rec(1, t_origin=0.0, drop="x")]) is None


class TestStampErrors:
    def test_zero_for_client_stamping(self):
        errs = stamp_errors([rec(1, t_origin=1.0, t_receipt=1.0)])
        assert errs.tolist() == [0.0]

    def test_serialization_error_visible(self):
        errs = stamp_errors([rec(1, t_origin=1.0, t_receipt=1.005)])
        assert errs[0] == pytest.approx(0.005)

    def test_missing_stamps_skipped(self):
        record = PacketRecord(
            record_id=1, seqno=1, source=1, destination=2, sender=1,
            receiver=2, channel=1, kind="data", size_bits=8,
            t_origin=None, t_receipt=1.0, t_forward=None, t_delivered=None,
        )
        assert stamp_errors([record]).size == 0

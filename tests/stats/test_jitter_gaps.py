"""Tests for jitter_stats."""

import pytest

from repro.core.packet import PacketRecord
from repro.stats.metrics import jitter_stats


def rec(seq, *, latency=0.1, drop=None, src=1, receiver=3):
    t = float(seq)
    return PacketRecord(
        record_id=seq, seqno=seq, source=src, destination=3, sender=src,
        receiver=receiver, channel=1, kind="data", size_bits=1000,
        t_origin=t, t_receipt=t, t_forward=t + latency,
        t_delivered=None if drop else t + latency, drop_reason=drop,
    )


class TestJitter:
    def test_constant_latency_zero_jitter(self):
        records = [rec(i, latency=0.1) for i in range(1, 6)]
        assert jitter_stats(records) == pytest.approx(0.0)

    def test_alternating_latency(self):
        records = [rec(i, latency=0.1 if i % 2 else 0.3)
                   for i in range(1, 5)]
        assert jitter_stats(records) == pytest.approx(0.2)

    def test_too_few_records(self):
        assert jitter_stats([]) is None
        assert jitter_stats([rec(1)]) is None


"""Tests for repro.models.link — the §4.3.2 link models.

The models decide nothing themselves: Step 3 (the drop draw and the
forward time) is :meth:`Fanout.forward` over a row plan built from
them, so the behaviour tests here send frames through a row.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ids import ChannelId, NodeId
from repro.core.neighbor import Fanout
from repro.errors import ConfigurationError
from repro.models.link import (
    DEFAULT_LINK,
    BandwidthModel,
    DelayModel,
    LinkModel,
    PacketLossModel,
)
from repro.models.radio import Radio

PAPER_LOSS = PacketLossModel(p0=0.1, p1=0.9, d0=50.0, radio_range=200.0)
NON_FINITE = (math.nan, math.inf, -math.inf)


def row(link, *distances):
    """A row whose targets 1, 2, ... sit at ``distances`` from the sender."""
    targets = tuple(NodeId(i) for i in range(1, len(distances) + 1))
    return Fanout(
        Radio(ChannelId(1), 1000.0, link), targets,
        np.array(distances, dtype=float),
        {t: i for i, t in enumerate(targets)}, frozenset(targets),
    )


class TestPacketLossModel:
    def test_paper_parameters(self):
        """Table 3's model: floor 0.1 to 50, ramp to 0.9 at 200."""
        assert PAPER_LOSS.loss_probability(0) == pytest.approx(0.1)
        assert PAPER_LOSS.loss_probability(50) == pytest.approx(0.1)
        assert PAPER_LOSS.loss_probability(200) == pytest.approx(0.9)
        # Kp = (P1-P0)/(R-D0) = 0.8/150
        assert PAPER_LOSS.kp == pytest.approx(0.8 / 150)
        assert PAPER_LOSS.loss_probability(125) == pytest.approx(
            0.1 + 0.8 / 150 * 75
        )

    def test_clamped_beyond_range(self):
        assert PAPER_LOSS.loss_probability(500) == pytest.approx(0.9)

    def test_constant_special_case(self):
        """P1 == P0 recovers the constant model (paper's words)."""
        m = PacketLossModel(p0=0.3, p1=0.3, d0=10, radio_range=100)
        assert m.is_constant and m.kp == 0.0
        for r in (0, 10, 50, 100, 1000):
            assert m.loss_probability(r) == 0.3

    def test_monotone_nondecreasing(self):
        rs = np.linspace(0, 300, 200)
        ps = PAPER_LOSS.loss_probability_array(rs)
        assert np.all(np.diff(ps) >= -1e-12)

    def test_array_matches_scalar(self):
        rs = np.array([0.0, 25.0, 50.0, 100.0, 200.0, 400.0])
        arr = PAPER_LOSS.loss_probability_array(rs)
        for r, p in zip(rs, arr):
            assert p == pytest.approx(PAPER_LOSS.loss_probability(float(r)))

    def test_should_drop_extremes(self):
        """Loss 0 never drops and loss 1 always does, neither drawing."""
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        never = row(LinkModel(loss=PacketLossModel(radio_range=100)), 50.0)
        always = row(LinkModel(loss=PacketLossModel(
            p0=1.0, p1=1.0, radio_range=100)), 50.0)
        for _ in range(100):
            assert never.forward(rng, [0], 0.0, 8)[0] == ()
            assert always.forward(rng, [0], 0.0, 8) == ((NodeId(1),), [])
        assert rng.bit_generator.state == state

    def test_should_drop_statistics(self):
        """Loss 0.5 drops about half of 10 000 unicasts."""
        rng = np.random.default_rng(1)
        fan = row(LinkModel(loss=PacketLossModel(
            p0=0.5, p1=0.5, radio_range=100)), 10.0)
        hits = sum(bool(fan.forward(rng, [0], 0.0, 8)[0])
                   for _ in range(10_000))
        assert 4700 <= hits <= 5300

    def test_non_finite_rejected(self):
        for v in NON_FINITE:
            with pytest.raises(ConfigurationError):
                PacketLossModel(d0=v, radio_range=100)
            with pytest.raises(ConfigurationError):
                PacketLossModel(radio_range=v)
            with pytest.raises(ConfigurationError):
                PacketLossModel(p0=v, p1=v)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PacketLossModel(p0=-0.1)
        with pytest.raises(ConfigurationError):
            PacketLossModel(p0=0.5, p1=0.2, radio_range=100)  # decreasing
        with pytest.raises(ConfigurationError):
            PacketLossModel(p0=0.1, p1=0.9, d0=150, radio_range=100)
        with pytest.raises(ConfigurationError):
            PacketLossModel(radio_range=0)
        with pytest.raises(ConfigurationError):
            PAPER_LOSS.loss_probability(-1.0)

    @given(
        st.floats(0, 1), st.floats(0, 1),
        st.floats(0, 100), st.floats(101, 500),
        st.floats(0, 600),
    )
    def test_property_in_bounds(self, a, b, d0, rr, r):
        p0, p1 = min(a, b), max(a, b)
        m = PacketLossModel(p0=p0, p1=p1, d0=d0, radio_range=rr)
        p = m.loss_probability(r)
        assert p0 - 1e-12 <= p <= p1 + 1e-12


class TestBandwidthModel:
    def test_gaussian_endpoints(self):
        """B(0) = M and B(R) = m (paper's Kb definition)."""
        m = BandwidthModel(peak=11e6, edge=1e6, radio_range=200.0)
        assert m.bandwidth(0) == pytest.approx(11e6)
        assert m.bandwidth(200) == pytest.approx(1e6, rel=1e-6)
        assert m.kb == pytest.approx(
            (math.log(11e6) - math.log(1e6)) / 200**2
        )

    def test_constant_special_case(self):
        """m == M recovers the constant model."""
        m = BandwidthModel(peak=5e6, edge=5e6, radio_range=100)
        assert m.is_constant and m.kb == 0.0
        for r in (0, 50, 100, 300):
            assert m.bandwidth(r) == 5e6

    def test_monotone_decreasing(self):
        m = BandwidthModel(peak=11e6, edge=1e6, radio_range=200.0)
        rs = np.linspace(0, 200, 100)
        bw = m.bandwidth_array(rs)
        assert np.all(np.diff(bw) <= 1e-6)

    def test_floor_at_edge(self):
        m = BandwidthModel(peak=11e6, edge=1e6, radio_range=200.0)
        assert m.bandwidth(500) == pytest.approx(1e6)

    def test_serialization_time(self):
        """A megabit at 1 Mbit/s leaves one second after its receipt."""
        fan = row(LinkModel(bandwidth=BandwidthModel(peak=1e6,
                                                     radio_range=100)), 0.0)
        rng = np.random.default_rng(0)
        assert fan.forward(rng, None, 0.0, 1_000_000) == (
            (), [(1.0, (NodeId(1),))]
        )

    def test_array_matches_scalar(self):
        m = BandwidthModel(peak=11e6, edge=2e6, radio_range=150.0)
        rs = np.array([0.0, 75.0, 150.0, 300.0])
        for r, b in zip(rs, m.bandwidth_array(rs)):
            assert b == pytest.approx(m.bandwidth(float(r)))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BandwidthModel(peak=0)
        with pytest.raises(ConfigurationError):
            BandwidthModel(peak=1e6, edge=2e6)  # edge > peak
        with pytest.raises(ConfigurationError):
            BandwidthModel(peak=1e6, edge=-1)
        with pytest.raises(ConfigurationError):
            BandwidthModel(peak=1e6, radio_range=0)

    def test_non_finite_rejected(self):
        for v in NON_FINITE:
            with pytest.raises(ConfigurationError):
                BandwidthModel(peak=v)
            with pytest.raises(ConfigurationError):
                BandwidthModel(peak=1e6, edge=v)
            with pytest.raises(ConfigurationError):
                BandwidthModel(peak=1e6, radio_range=v)


class TestDelayModel:
    def test_constant(self):
        assert DelayModel(base=0.01).delay(100) == pytest.approx(0.01)

    def test_distance_proportional(self):
        m = DelayModel(base=0.01, per_unit=0.001)
        assert m.delay(10) == pytest.approx(0.02)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DelayModel(base=-0.1)
        with pytest.raises(ConfigurationError):
            DelayModel().delay(-1)

    def test_non_finite_rejected(self):
        for v in NON_FINITE:
            with pytest.raises(ConfigurationError):
                DelayModel(base=v)
            with pytest.raises(ConfigurationError):
                DelayModel(per_unit=v)


class TestLinkModel:
    """§3.2 Step 3 over a row: ``Fanout.forward``."""

    def test_forward_time_formula(self):
        """§3.2 Step 3 verbatim."""
        link = LinkModel(
            bandwidth=BandwidthModel(peak=1e6, radio_range=100),
            delay=DelayModel(base=0.05),
        )
        rng = np.random.default_rng(0)
        lost, runs = row(link, 30.0).forward(rng, [0], 2.0, 10_000)
        assert lost == () and runs == [(2.0 + 0.05 + 10_000 / 1e6,
                                        (NodeId(1),))]

    def test_forward_time_uses_distance_bandwidth(self):
        link = LinkModel(
            bandwidth=BandwidthModel(peak=1e6, edge=1e5, radio_range=100),
        )
        rng = np.random.default_rng(0)
        _, [(near, _), (far, _)] = row(link, 0.0, 100.0).forward(
            rng, None, 0.0, 100_000
        )
        assert far > near  # lower bandwidth at distance → later forward
        # A unicast is the broadcast's target, to the last bit.
        assert row(link, 0.0, 100.0).forward(rng, [1], 0.0, 100_000) == (
            (), [(far, (NodeId(2),))]
        )

    def test_default_is_benign(self):
        """Lossless, no delay, 11 Mbit/s: no draw and no drop."""
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        fan = row(DEFAULT_LINK, 50.0)
        assert fan.forward(rng, [0], 1.0, 11_000) == (
            (), [(1.0 + 11_000 / 11e6, (NodeId(1),))]
        )
        assert rng.bit_generator.state == state
        assert DEFAULT_LINK.delay.delay(10) == 0.0

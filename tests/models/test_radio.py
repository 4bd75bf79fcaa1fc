"""Tests for repro.models.radio — radios and multi-radio state."""

import pytest

from repro.core.ids import ChannelId, RadioIndex
from repro.errors import ChannelError, ConfigurationError
from repro.models.link import LinkModel, PacketLossModel
from repro.models.radio import Radio, RadioConfig, RadioState


def ch(k):
    return ChannelId(k)


class TestRadio:
    def test_construction(self):
        r = Radio(ch(1), 100.0)
        assert r.channel == 1 and r.range == 100.0

    def test_retune_and_range_copies(self):
        r = Radio(ch(1), 100.0)
        assert r.retuned(ch(2)).channel == 2
        assert r.ranged(50.0).range == 50.0
        assert r.channel == 1 and r.range == 100.0  # original intact

    def test_validation(self):
        with pytest.raises(ChannelError):
            Radio(ch(-1), 100.0)
        with pytest.raises(ConfigurationError):
            Radio(ch(1), 0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                Radio(ch(1), bad)


class TestRadioConfig:
    def test_single(self):
        cfg = RadioConfig.single(3, 150.0)
        assert cfg.channels == {3}
        assert cfg.radio_on_channel(ch(3)).range == 150.0
        assert cfg.radio_on_channel(ch(9)) is None

    def test_multi(self):
        cfg = RadioConfig.of([Radio(ch(1), 100.0), Radio(ch(2), 200.0)])
        assert cfg.channels == {1, 2}

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            RadioConfig(())

    def test_custom_link(self):
        link = LinkModel(loss=PacketLossModel(p0=0.2, p1=0.2, radio_range=99))
        cfg = RadioConfig.single(1, 99.0, link)
        assert cfg.radios[0].link.loss.p0 == 0.2


class TestRadioState:
    def test_snapshot_roundtrip(self):
        cfg = RadioConfig.of([Radio(ch(1), 100.0), Radio(ch(2), 200.0)])
        state = RadioState(cfg)
        assert state.snapshot() == cfg

    def test_set_channel(self):
        state = RadioState(RadioConfig.single(1, 100.0))
        state.set_channel(RadioIndex(0), ch(4))
        assert state.channels == {4}

    def test_set_range(self):
        state = RadioState(RadioConfig.single(1, 100.0))
        state.set_range(RadioIndex(0), 55.0)
        assert state[0].range == 55.0

    def test_set_link(self):
        state = RadioState(RadioConfig.single(1, 100.0))
        link = LinkModel(loss=PacketLossModel(p0=0.9, p1=0.9, radio_range=10))
        state.set_link(RadioIndex(0), link)
        assert state[0].link.loss.p0 == 0.9

    def test_radio_on_channel_first_match(self):
        state = RadioState(
            RadioConfig.of([Radio(ch(1), 100.0), Radio(ch(1), 50.0)])
        )
        idx, radio = state.radio_on_channel(ch(1))
        assert idx == 0 and radio.range == 100.0

    def test_bad_index(self):
        state = RadioState(RadioConfig.single(1, 100.0))
        with pytest.raises(ConfigurationError):
            state.set_range(RadioIndex(5), 10.0)
        with pytest.raises(ConfigurationError):
            state.set_channel(RadioIndex(-1), ch(2))

    def test_invalid_values(self):
        state = RadioState(RadioConfig.single(1, 100.0))
        with pytest.raises(ConfigurationError):
            state.set_range(RadioIndex(0), -5.0)
        with pytest.raises(ChannelError):
            state.set_channel(RadioIndex(0), ch(-3))

    def test_iteration_and_len(self):
        state = RadioState(
            RadioConfig.of([Radio(ch(1), 100.0), Radio(ch(2), 200.0)])
        )
        assert len(state) == 2
        assert [r.channel for r in state] == [1, 2]

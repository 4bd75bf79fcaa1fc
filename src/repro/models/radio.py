"""Radio and multi-radio node configuration (paper §4.2).

"In multi-radio environment, each MANET node has multiple radios to assign
multiple channels to adjust neighbor connectivity with other nodes" — a
node's neighborhood depends on *both* radio range and channel assignment.

A :class:`Radio` is one transceiver: a channel id, a range ``R(A, n)``, and
its own :class:`~repro.models.link.LinkModel` (different radios may differ
in rate/loss characteristics).  A :class:`RadioConfig` is the immutable
bundle a node is created with; at runtime the scene owns mutable
:class:`RadioState` objects so the GUI-equivalent operations ("switching
the channel, changing the radio range") can retune them live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from ..core.ids import ChannelId, RadioIndex
from ..errors import ChannelError, ConfigurationError
from .link import DEFAULT_LINK, LinkModel

__all__ = ["Radio", "RadioConfig", "RadioState"]


@dataclass(frozen=True, slots=True)
class Radio:
    """One transceiver: channel, range, link model."""

    channel: ChannelId
    range: float
    link: LinkModel = field(default_factory=lambda: DEFAULT_LINK)

    def __post_init__(self) -> None:
        if int(self.channel) < 0:
            raise ChannelError(f"channel id must be non-negative: {self.channel}")
        if not (math.isfinite(self.range) and self.range > 0):
            raise ConfigurationError(
                f"radio range must be finite and positive: {self.range}"
            )

    def retuned(self, channel: ChannelId) -> "Radio":
        """Copy of this radio switched to another channel."""
        return replace(self, channel=channel)

    def ranged(self, range_: float) -> "Radio":
        """Copy of this radio with a different range."""
        return replace(self, range=range_)


@dataclass(frozen=True, slots=True)
class RadioConfig:
    """The radios a node is born with (at least one)."""

    radios: tuple[Radio, ...]

    def __post_init__(self) -> None:
        if not self.radios:
            raise ConfigurationError("a node needs at least one radio")

    @staticmethod
    def single(
        channel: int, range_: float, link: Optional[LinkModel] = None
    ) -> "RadioConfig":
        """One-radio convenience constructor."""
        return RadioConfig(
            (Radio(ChannelId(channel), range_, link or DEFAULT_LINK),)
        )

    @staticmethod
    def of(radios: Iterable[Radio]) -> "RadioConfig":
        return RadioConfig(tuple(radios))

    @property
    def channels(self) -> frozenset[ChannelId]:
        """``CS(A)`` — the node's channel set."""
        return frozenset(r.channel for r in self.radios)

    def radio_on_channel(self, channel: ChannelId) -> Optional[Radio]:
        """The first radio tuned to ``channel``, or None."""
        for r in self.radios:
            if r.channel == channel:
                return r
        return None


class RadioState:
    """Mutable runtime state of one node's radios (owned by the scene).

    Mutations go through the scene so change listeners (neighbor tables,
    recorders) observe every retune — don't mutate directly in user code.
    """

    def __init__(self, config: RadioConfig) -> None:
        self._radios: list[Radio] = list(config.radios)

    def __len__(self) -> int:
        return len(self._radios)

    def __getitem__(self, index: int) -> Radio:
        return self._radios[index]

    def __iter__(self):
        return iter(self._radios)

    @property
    def channels(self) -> frozenset[ChannelId]:
        """Current ``CS(A)``."""
        return frozenset(r.channel for r in self._radios)

    def radio_on_channel(self, channel: ChannelId) -> Optional[tuple[RadioIndex, Radio]]:
        """(index, radio) of the first radio tuned to ``channel``."""
        for i, r in enumerate(self._radios):
            if r.channel == channel:
                return RadioIndex(i), r
        return None

    def set_channel(self, index: RadioIndex, channel: ChannelId) -> Radio:
        """Retune radio ``index``; returns the new radio value."""
        self._check(index)
        if int(channel) < 0:
            raise ChannelError(f"channel id must be non-negative: {channel}")
        self._radios[index] = self._radios[index].retuned(channel)
        return self._radios[index]

    def set_range(self, index: RadioIndex, range_: float) -> Radio:
        """Change radio ``index``'s range; returns the new radio value."""
        self._check(index)
        if range_ <= 0:
            raise ConfigurationError(f"radio range must be positive: {range_}")
        self._radios[index] = self._radios[index].ranged(range_)
        return self._radios[index]

    def set_link(self, index: RadioIndex, link: LinkModel) -> Radio:
        """Swap radio ``index``'s link model (a GUI 'configure' action)."""
        self._check(index)
        self._radios[index] = replace(self._radios[index], link=link)
        return self._radios[index]

    def snapshot(self) -> RadioConfig:
        """Immutable snapshot of the current radios (for records/replay)."""
        return RadioConfig(tuple(self._radios))

    def _check(self, index: int) -> None:
        if not 0 <= index < len(self._radios):
            raise ConfigurationError(
                f"radio index {index} out of range (node has {len(self._radios)})"
            )

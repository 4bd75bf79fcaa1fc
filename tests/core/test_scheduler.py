"""Tests for repro.core.scheduler — the forward schedule (§3.2 Steps 4–6)."""

import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import ChannelId, NodeId
from repro.core.packet import Packet
from repro.core.scheduler import ForwardSchedule, ScheduledPacket
from repro.errors import SchedulerError


def entry(t: float, seq: int = 1) -> ScheduledPacket:
    packet = Packet(
        source=NodeId(1), destination=NodeId(2), payload=b"x",
        size_bits=8, seqno=seq, channel=ChannelId(1),
    )
    return ScheduledPacket(t_forward=t, packet=packet, receivers=(NodeId(2),),
                           sender=NodeId(1))


class TestPushPop:
    def test_empty(self):
        s = ForwardSchedule()
        assert len(s) == 0
        assert s.peek_time() is None
        assert s.pop_due(100.0) == []

    def test_pop_due_ordering(self):
        s = ForwardSchedule()
        for t in (3.0, 1.0, 2.0):
            assert s.push(entry(t))
        due = s.pop_due(2.5)
        assert [e.t_forward for e in due] == [1.0, 2.0]
        assert len(s) == 1

    def test_fifo_ties(self):
        s = ForwardSchedule()
        for i in range(5):
            s.push(entry(1.0, seq=i))
        due = s.pop_due(1.0)
        assert [e.packet.seqno for e in due] == [0, 1, 2, 3, 4]

    def test_boundary_inclusive(self):
        s = ForwardSchedule()
        s.push(entry(1.0))
        assert len(s.pop_due(1.0)) == 1

    def test_peek(self):
        s = ForwardSchedule()
        s.push(entry(5.0))
        s.push(entry(2.0))
        assert s.peek_time() == 2.0

    @given(st.lists(st.floats(0, 1000, allow_nan=False), min_size=1,
                    max_size=50))
    def test_drain_sorted(self, times):
        s = ForwardSchedule()
        for t in times:
            s.push(entry(t))
        out = [e.t_forward for e in s.drain()]
        assert out == sorted(times)
        assert len(s) == 0


class TestCapacity:
    def test_overflow_rejected(self):
        s = ForwardSchedule(capacity=2)
        assert s.push(entry(1.0))
        assert s.push(entry(2.0))
        assert not s.push(entry(3.0))
        assert len(s) == 2

    def test_capacity_frees_on_pop(self):
        s = ForwardSchedule(capacity=1)
        s.push(entry(1.0))
        s.pop_due(1.0)
        assert s.push(entry(2.0))

    def test_invalid_capacity(self):
        with pytest.raises(SchedulerError):
            ForwardSchedule(capacity=0)


class TestClose:
    def test_push_after_close_raises(self):
        s = ForwardSchedule()
        s.close()
        with pytest.raises(SchedulerError):
            s.push(entry(1.0))

    def test_wait_due_returns_after_close(self):
        s = ForwardSchedule()
        s.close()
        assert s.wait_due(0.0) == []


class TestWaitDue:
    """``wait_ready`` (the sleep) + ``wait_due`` (the harvest) as the
    real-time loop composes them: wait, read the clock, harvest."""

    def test_immediate_when_due(self):
        s = ForwardSchedule()
        s.push(entry(1.0))
        assert len(s.wait_due(now=2.0)) == 1

    def test_timeout_returns_empty(self):
        s = ForwardSchedule()
        start = time.monotonic()
        assert s.wait_ready(now=0.0, max_wait=0.05) == ([], [])
        elapsed = time.monotonic() - start
        assert 0.04 < elapsed < 1.0
        assert s.wait_due(now=elapsed) == []

    def test_overdue_max_wait_polls_once(self):
        """A bound already in the past (the caller's heartbeat is
        overdue) is a poll, not an error."""
        s = ForwardSchedule()
        assert s.wait_ready(now=0.0, max_wait=-0.5) == ([], [])

    def test_due_head_still_polls_the_sockets(self):
        """With something already due the wait must not sleep, but it
        must still report a readable socket — or a standing backlog
        would starve the reads."""
        s = ForwardSchedule()
        s.push(entry(1.0))
        r, w = socket.socketpair()
        try:
            w.send(b"x")
            start = time.monotonic()
            assert s.wait_ready(now=2.0, max_wait=1.0, rlist=[r]) == ([r], [])
            assert time.monotonic() - start < 0.5
        finally:
            r.close()
            w.close()

    def test_early_wakeup_does_not_deliver_future_entries(self):
        """An early wakeup (a socket turning readable) must not deliver
        entries due in the future: the wait only sleeps, and the harvest
        cuts at the clock the caller reads *after* it.

        The waiter starts at now=0 with max_wait=10; after ~50 ms a frame
        due at t=5.0 is pushed and the wake socket poked.
        """
        s = ForwardSchedule()
        r, w = socket.socketpair()
        got = []

        def waiter():
            start = time.monotonic()
            readable, _ = s.wait_ready(now=0.0, max_wait=10.0, rlist=[r])
            assert readable == [r]
            got.extend(s.wait_due(now=time.monotonic() - start))

        t = threading.Thread(target=waiter)
        start = time.monotonic()
        try:
            t.start()
            time.sleep(0.05)
            s.push(entry(5.0))  # due far beyond any plausible wait
            w.send(b"x")
            t.join(timeout=2.0)
        finally:
            r.close()
            w.close()
        assert not t.is_alive()
        assert time.monotonic() - start < 2.0  # woke on the poke, not the timeout
        assert got == []  # nothing was due yet
        assert len(s) == 1  # the future entry is still scheduled

    def test_early_wakeup_delivers_what_became_due(self):
        """Complement: an entry that *does* fall due during the measured
        wait is delivered on the early wakeup."""
        s = ForwardSchedule()
        r, w = socket.socketpair()
        got = []

        def waiter():
            start = time.monotonic()
            s.wait_ready(now=0.0, max_wait=10.0, rlist=[r])
            got.extend(s.wait_due(now=time.monotonic() - start))

        t = threading.Thread(target=waiter)
        try:
            t.start()
            time.sleep(0.05)
            s.push(entry(0.01))  # already due by the time of the push
            w.send(b"x")
            t.join(timeout=2.0)
        finally:
            r.close()
            w.close()
        assert len(got) == 1


class TestPushMany:
    def test_batch_roundtrip_ordered(self):
        s = ForwardSchedule()
        entries = [entry(t, seq=i) for i, t in enumerate([3.0, 1.0, 2.0])]
        assert s.push_many(entries) == 3
        assert [e.t_forward for e in s.pop_due(10.0)] == [1.0, 2.0, 3.0]

    def test_empty_batch(self):
        s = ForwardSchedule()
        assert s.push_many([]) == 0

    def test_capacity_prefix_accepted(self):
        """At capacity, push_many accepts a prefix and reports the count
        so the caller can record the rest as queue-overflow drops."""
        s = ForwardSchedule(capacity=2)
        entries = [entry(float(i), seq=i) for i in range(5)]
        assert s.push_many(entries) == 2
        assert len(s) == 2
        assert s.push_many(entries) == 0  # full: nothing accepted

    def test_push_many_after_close_raises(self):
        s = ForwardSchedule()
        s.close()
        with pytest.raises(SchedulerError):
            s.push_many([entry(1.0)])


class TestHybridWait:
    """``wait_ready`` is hybrid: it sleeps short of a deadline by what
    its last timed wake-up overslept (at most SPIN_WAIT) and polls
    across the rest."""

    def test_deadline_epsilon_away_does_not_spin(self):
        """A head deadline an epsilon beyond ``now`` is met at once —
        neither a max_wait sleep nor an open-ended poll loop."""
        s = ForwardSchedule()
        s.push(entry(1e-9))  # due essentially "now", but not <= now
        start = time.monotonic()
        assert s.wait_ready(now=0.0, max_wait=1.0) == ([], [])
        elapsed = time.monotonic() - start
        assert len(s.wait_due(now=elapsed)) == 1
        assert elapsed < 0.5  # came back on the deadline, not max_wait

    def test_spin_phase_meets_near_deadline(self):
        """A deadline inside the poll margin is met by polling alone
        (the sleep is skipped), and not before it is due."""
        s = ForwardSchedule()
        s._oversleep = ForwardSchedule.SPIN_WAIT
        deadline = ForwardSchedule.SPIN_WAIT / 2.0
        s.push(entry(deadline))
        start = time.monotonic()
        s.wait_ready(now=0.0, max_wait=1.0)
        elapsed = time.monotonic() - start
        assert deadline <= elapsed < 0.5
        assert len(s.wait_due(now=elapsed)) == 1

    def test_coarse_phase_ends_before_deadline_then_spin_meets_it(self):
        """A deadline far beyond the margin gets one sleep that ends
        before it (by the calibrated margin, which a huge last
        oversleep cannot push past SPIN_WAIT); polling meets the
        deadline, never early."""
        s = ForwardSchedule()
        s._oversleep = 5.0  # e.g. the process was suspended once
        s.push(entry(0.03))
        start = time.monotonic()
        s.wait_ready(now=0.0, max_wait=1.0)
        elapsed = time.monotonic() - start
        assert 0.03 <= elapsed < 0.5
        assert s._oversleep < 0.5  # re-measured on this wake-up
        assert len(s.wait_due(now=elapsed)) == 1

    def test_zero_fire_window_keeps_exact_semantics(self):
        """The harvest has no fire window: an entry due 4 ms after
        ``now`` stays queued until its own deadline."""
        s = ForwardSchedule()
        s.push(entry(1.0, seq=1))
        s.push(entry(1.004, seq=2))
        assert [e.packet.seqno for e in s.wait_due(now=1.0)] == [1]
        assert s.wait_due(now=1.003) == []
        assert [e.packet.seqno for e in s.wait_due(now=1.004)] == [2]


class TestFanOutGroups:
    """One entry per fan-out group, counted in (packet, receiver) pairs:
    the schedule behaves exactly like a flat schedule of pairs."""

    @staticmethod
    def group(t, seq, receivers):
        packet = Packet(
            source=NodeId(1), destination=NodeId(0), payload=b"x",
            size_bits=8, seqno=seq, channel=ChannelId(1),
        )
        return ScheduledPacket(
            t_forward=t, packet=packet,
            receivers=tuple(NodeId(r) for r in receivers), sender=NodeId(1),
        )

    def test_len_counts_pairs(self):
        s = ForwardSchedule()
        assert s.push_many([self.group(1.0, 1, (2, 3, 4)),
                            self.group(2.0, 2, (5,))]) == 4
        assert len(s) == 4
        assert [len(e.receivers) for e in s.pop_due(1.0)] == [3]
        assert len(s) == 1
        s.drain()
        assert len(s) == 0

    def test_capacity_splits_the_last_group(self):
        s = ForwardSchedule(capacity=4)
        groups = [self.group(1.0, 1, (2, 3)), self.group(1.0, 2, (4, 5, 6))]
        assert s.push_many(groups) == 4
        assert len(s) == 4
        due = s.pop_due(1.0)
        assert [e.receivers for e in due] == [(2, 3), (4, 5)]
        assert due[0] is groups[0]
        assert not s.push(self.group(2.0, 3, (7,) * 5))  # 4 of 5 fit
        assert len(s) == 4

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([None, 1, 2, 3, 4, 5]),
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("push"),
                    st.lists(
                        st.tuples(st.integers(0, 6),
                                  st.integers(1, 4)),
                        max_size=4,
                    ),
                ),
                st.tuples(st.just("pop"), st.integers(0, 6)),
                st.tuples(st.just("wait"), st.integers(0, 6)),
            ),
            max_size=25,
        ),
    )
    def test_matches_a_flat_pair_schedule(self, capacity, ops):
        """Random groups and interleaved ``push_many`` / ``pop_due`` /
        ``wait_due`` against a reference model that lists
        every (packet, receiver) pair on its own: the same accepted
        counts, the same ``len()`` and the same popped pair order."""
        s = ForwardSchedule(capacity)
        flat: list[tuple[float, int, int, int]] = []  # (t, order, seq, rcv)
        order = 0
        seq = 0
        for op, arg in ops:
            if op == "push":
                groups = []
                pairs = []
                for t, k in arg:
                    seq += 1
                    receivers = tuple(range(10 * seq, 10 * seq + k))
                    groups.append(self.group(float(t), seq, receivers))
                    pairs += [(float(t), seq, r) for r in receivers]
                room = len(pairs) if capacity is None else max(
                    capacity - len(flat), 0
                )
                want = pairs[:room]
                for t, sq, r in want:
                    flat.append((t, order, sq, r))
                    order += 1
                assert s.push_many(groups) == len(want)
            else:
                cut = float(arg)
                got = s.pop_due(cut) if op == "pop" else s.wait_due(cut)
                flat.sort()
                want = [(sq, r) for t, _, sq, r in flat if t <= cut]
                flat = [p for p in flat if p[0] > cut]
                assert [
                    (int(e.packet.seqno), int(r))
                    for e in got for r in e.receivers
                ] == want
                assert all(e.receivers for e in got)
            assert len(s) == len(flat)

"""Tests for repro.core.clock — clocks and the §4.1 sync scheme."""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.clock import (
    RealTimeClock,
    SynchronizedClock,
    SyncRequest,
    VirtualClock,
    estimate_offset,
    make_sync_reply,
    make_sync_request,
)
from repro.errors import ClockError


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_custom_start(self):
        assert VirtualClock(start=5.0).now() == 5.0

    def test_call_at_runs_in_order(self):
        clock = VirtualClock()
        order = []
        clock.call_at(2.0, lambda: order.append("b"))
        clock.call_at(1.0, lambda: order.append("a"))
        clock.call_at(3.0, lambda: order.append("c"))
        clock.run()
        assert order == ["a", "b", "c"]
        assert clock.now() == 3.0

    def test_fifo_ties(self):
        clock = VirtualClock()
        order = []
        for i in range(5):
            clock.call_at(1.0, lambda i=i: order.append(i))
        clock.run()
        assert order == [0, 1, 2, 3, 4]

    def test_call_after(self):
        clock = VirtualClock(start=10.0)
        seen = []
        clock.call_after(0.5, lambda: seen.append(clock.now()))
        clock.run()
        assert seen == [10.5]

    def test_scheduling_in_past_rejected(self):
        clock = VirtualClock(start=5.0)
        with pytest.raises(ClockError):
            clock.call_at(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ClockError):
            VirtualClock().call_after(-1.0, lambda: None)

    def test_cancel(self):
        clock = VirtualClock()
        fired = []
        handle = clock.call_at(1.0, lambda: fired.append(1))
        clock.cancel(handle)
        clock.run()
        assert fired == []

    def test_cancel_after_run_is_noop(self):
        clock = VirtualClock()
        handle = clock.call_at(1.0, lambda: None)
        clock.run()
        clock.cancel(handle)  # no error

    def test_cancel_after_fire_leaves_no_tombstone(self):
        clock = VirtualClock()
        handle = clock.call_at(1.0, lambda: None)
        later = clock.call_at(2.0, lambda: None)
        clock.run_until(1.0)
        clock.cancel(handle)
        assert clock._cancelled == set()
        assert clock.pending() == 1
        clock.cancel(later)  # still queued: this one does count
        assert clock._cancelled == {later.seq}

    def test_cancel_same_instant_tells_fired_from_queued(self):
        clock = VirtualClock()
        fired = []
        handles = []

        def first():
            fired.append("first")
            clock.cancel(handles[0])  # itself: already running
            clock.cancel(handles[1])  # same instant, not yet run

        handles.append(clock.call_at(1.0, first))
        handles.append(clock.call_at(1.0, lambda: fired.append("second")))
        clock.run()
        assert fired == ["first"]
        assert clock._cancelled == set() and clock.pending() == 0

    def test_cancel_twice_after_skip_is_noop(self):
        clock = VirtualClock()
        handle = clock.call_at(1.0, lambda: None)
        clock.cancel(handle)
        clock.run()  # pops the cancelled entry without advancing time
        clock.cancel(handle)
        assert clock._cancelled == set() and clock.pending() == 0

    def test_pending_counts_live_callbacks(self):
        clock = VirtualClock()
        a = clock.call_at(1.0, lambda: None)
        clock.call_at(2.0, lambda: None)
        assert clock.pending() == 2
        clock.cancel(a)
        clock.cancel(a)  # idempotent
        assert clock.pending() == 1
        clock.run()
        assert clock.pending() == 0

    def test_cancel_then_run_until_skips_and_respects_deadline(self):
        """A cancelled entry before the deadline is skipped without
        pulling the next live one in from beyond it (``run_until`` used
        to run it early and then step the clock backwards)."""
        clock = VirtualClock()
        fired = []
        handle = clock.call_at(1.0, lambda: fired.append(("a", clock.now())))
        clock.call_at(3.0, lambda: fired.append(("b", clock.now())))
        clock.cancel(handle)
        clock.run_until(2.0)
        assert fired == [] and clock.now() == 2.0 and clock.pending() == 1
        clock.run_until(3.0)
        assert fired == [("b", 3.0)]

    def test_run_until_ends_exactly_at_deadline(self):
        clock = VirtualClock()
        clock.call_at(1.0, lambda: None)
        clock.run_until(5.0)
        assert clock.now() == 5.0

    def test_run_until_does_not_run_future_events(self):
        clock = VirtualClock()
        fired = []
        clock.call_at(10.0, lambda: fired.append(1))
        clock.run_until(5.0)
        assert fired == [] and clock.pending() == 1

    def test_run_until_backwards_rejected(self):
        clock = VirtualClock(start=5.0)
        with pytest.raises(ClockError):
            clock.run_until(4.0)

    def test_nan_times_rejected(self):
        """NaN compares below nothing: accepted, it would sit at the head
        of the queue and stall every later timer."""
        clock = VirtualClock()
        nan = float("nan")
        with pytest.raises(ClockError):
            clock.call_at(nan, lambda: None)
        with pytest.raises(ClockError):
            clock.call_after(nan, lambda: None)
        with pytest.raises(ClockError):
            clock.run_until(nan)
        assert clock.now() == 0.0 and clock.pending() == 0

    def test_later_timer_fires_after_rejected_nan(self):
        clock = VirtualClock()
        fired = []
        with pytest.raises(ClockError):
            clock.call_after(float("nan"), lambda: fired.append("nan"))
        clock.call_after(1.0, lambda: fired.append(clock.now()))
        clock.run_until(5.0)
        assert fired == [1.0] and clock.pending() == 0

    def test_callbacks_can_schedule(self):
        clock = VirtualClock()
        seen = []

        def first():
            clock.call_after(1.0, lambda: seen.append(clock.now()))

        clock.call_at(1.0, first)
        clock.run()
        assert seen == [2.0]

    def test_runaway_loop_detected(self):
        clock = VirtualClock()

        def loop():
            clock.call_after(0.0, loop)

        clock.call_at(0.0, loop)
        with pytest.raises(ClockError):
            clock.run(max_events=100)

    def test_next_event_time(self):
        clock = VirtualClock()
        assert clock.next_event_time() is None
        clock.call_at(3.0, lambda: None)
        assert clock.next_event_time() == 3.0


class TestRealTimeClock:
    def test_monotonic_progress(self):
        clock = RealTimeClock()
        a = clock.now()
        time.sleep(0.01)
        assert clock.now() > a

    def test_sleep_until(self):
        clock = RealTimeClock()
        target = clock.now() + 0.02
        clock.sleep_until(target)
        assert clock.now() >= target

    def test_sleep_until_past_returns(self):
        clock = RealTimeClock()
        clock.sleep_until(clock.now() - 1.0)  # returns immediately


class TestSynchronizedClock:
    def test_applies_offset(self):
        base = VirtualClock(start=100.0)
        sync = SynchronizedClock(base, offset=3.5)
        assert sync.now() == pytest.approx(103.5)

    def test_offset_update(self):
        sync = SynchronizedClock(VirtualClock(start=1.0))
        sync.set_offset(-0.25)
        assert sync.offset == -0.25
        assert sync.now() == pytest.approx(0.75)


class TestSyncScheme:
    """The six-step exchange, as pure math."""

    def _exchange(self, true_offset, d_up, d_down, processing=0.0):
        """Simulate the exchange analytically.

        Server clock = client clock + true_offset.
        """
        t_c1 = 50.0
        t_s2 = t_c1 + true_offset + d_up
        t_s3 = t_s2 + processing
        reply = make_sync_reply(SyncRequest(t_c1), t_s2, t_s3)
        t_c4 = (t_s3 - true_offset) + d_down
        return estimate_offset(reply, t_c4)

    def test_symmetric_delay_exact(self):
        for offset in (-10.0, 0.0, 7.25):
            result = self._exchange(offset, d_up=0.004, d_down=0.004)
            assert result.offset == pytest.approx(offset, abs=1e-12)

    def test_processing_time_cancelled(self):
        # The echo term removes server processing entirely.
        result = self._exchange(5.0, 0.003, 0.003, processing=0.5)
        assert result.offset == pytest.approx(5.0, abs=1e-12)

    def test_delay_estimate(self):
        result = self._exchange(0.0, 0.004, 0.004)
        assert result.round_trip_delay == pytest.approx(0.004)

    @given(
        st.floats(-100, 100, allow_nan=False),
        st.floats(0, 0.05, allow_nan=False),
        st.floats(0, 0.05, allow_nan=False),
        st.floats(0, 1.0, allow_nan=False),
    )
    def test_error_bounded_by_half_asymmetry(self, offset, d_up, d_down, proc):
        result = self._exchange(offset, d_up, d_down, proc)
        bound = abs(d_down - d_up) / 2
        assert abs(result.offset - offset) <= bound + 1e-9

    def test_reply_before_receipt_rejected(self):
        with pytest.raises(ClockError):
            make_sync_reply(SyncRequest(0.0), t_s2=5.0, t_s3=4.0)

    def test_negative_delay_rejected(self):
        reply = make_sync_reply(SyncRequest(10.0), t_s2=10.0, t_s3=10.0)
        with pytest.raises(ClockError):
            estimate_offset(reply, t_c4=9.0)  # reply "arrived" before send

    def test_make_sync_request_stamps_now(self):
        clock = VirtualClock(start=42.0)
        assert make_sync_request(clock).t_c1 == 42.0

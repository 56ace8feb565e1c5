"""Tests for the session registry and its lockstep barrier."""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.serve.protocol import SlotReport
from repro.serve.sessions import NEVER_REPORTED, SessionRegistry

POSE = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class FakeTransport:
    def __init__(self, buffered_bytes=0, closing=False):
        self.buffered_bytes = buffered_bytes
        self.closing = closing

    def is_closing(self):
        return self.closing

    def get_write_buffer_size(self):
        return self.buffered_bytes


class FakeWriter:
    """Just enough of a StreamWriter for registry-level tests."""

    def __init__(self, buffered_bytes=0, closing=False):
        self.transport = FakeTransport(buffered_bytes, closing)


def report_for(slot):
    return SlotReport(
        slot=slot, delivered_ids=(), released_ids=(), indicator=1,
        delay_slots=0.0, viewed_quality=3.0, pose=POSE,
    )


class TestSeatAssignment:
    def test_lowest_seat_first(self):
        registry = SessionRegistry(capacity=3)
        seats = [
            registry.admit(f"c{i}", FakeWriter(), 40.0, joined_slot=0).seat
            for i in range(3)
        ]
        assert seats == [0, 1, 2]
        assert registry.occupancy() == 3

    def test_released_seat_is_reused_lowest_first(self):
        registry = SessionRegistry(capacity=3)
        for i in range(3):
            registry.admit(f"c{i}", FakeWriter(), 40.0, joined_slot=0)
        registry.release(1)
        registry.release(0)
        assert registry.admit("c3", FakeWriter(), 40.0, joined_slot=5).seat == 0
        assert registry.admit("c4", FakeWriter(), 40.0, joined_slot=5).seat == 1

    def test_admit_beyond_capacity_raises(self):
        registry = SessionRegistry(capacity=1)
        registry.admit("c0", FakeWriter(), 40.0, joined_slot=0)
        with pytest.raises(ConfigurationError):
            registry.admit("c1", FakeWriter(), 40.0, joined_slot=0)

    def test_release_counts_timeouts(self):
        registry = SessionRegistry(capacity=2)
        session = registry.admit("c0", FakeWriter(), 40.0, joined_slot=0)
        registry.release(session.seat, timed_out=True)
        registry.release(session.seat)  # double release is a no-op
        assert registry.total_leaves == 1
        assert registry.total_timeouts == 1
        assert not session.alive

    def test_active_is_seat_ordered(self):
        registry = SessionRegistry(capacity=4)
        for i in range(4):
            registry.admit(f"c{i}", FakeWriter(), 40.0, joined_slot=0)
        registry.release(2)
        assert [s.seat for s in registry.active()] == [0, 1, 3]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SessionRegistry(capacity=0)


class TestReports:
    def test_store_and_take(self):
        registry = SessionRegistry(capacity=1)
        session = registry.admit("c0", FakeWriter(), 40.0, joined_slot=0)
        assert session.last_report_slot == NEVER_REPORTED
        assert session.store_report(report_for(0), folded_slots=0)
        assert session.last_report_slot == 0
        assert session.take_report(0) == report_for(0)
        assert session.take_report(0) is None

    def test_duplicate_report_is_late(self):
        registry = SessionRegistry(capacity=1)
        session = registry.admit("c0", FakeWriter(), 40.0, joined_slot=0)
        assert session.store_report(report_for(2), folded_slots=0)
        assert not session.store_report(report_for(2), folded_slots=0)
        assert session.late_reports == 1

    def test_already_folded_report_is_late(self):
        registry = SessionRegistry(capacity=1)
        session = registry.admit("c0", FakeWriter(), 40.0, joined_slot=0)
        assert not session.store_report(report_for(3), folded_slots=4)
        assert session.late_reports == 1
        assert 3 not in session.reports

    def test_lag_slots(self):
        registry = SessionRegistry(capacity=1)
        session = registry.admit("c0", FakeWriter(), 40.0, joined_slot=0)
        # No report yet: one slot planned, nothing acked.
        assert session.lag_slots(current_slot=1) == 1
        session.store_report(report_for(0), folded_slots=0)
        assert session.lag_slots(current_slot=1) == 0
        assert session.lag_slots(current_slot=4) == 3

    def test_lag_ignores_slots_before_join(self):
        registry = SessionRegistry(capacity=2)
        session = registry.admit("late", FakeWriter(), 40.0, joined_slot=10)
        assert session.lag_slots(current_slot=10) == 0
        assert session.lag_slots(current_slot=12) == 2

    def test_write_buffer_bytes(self):
        registry = SessionRegistry(capacity=2)
        buffered = registry.admit("a", FakeWriter(buffered_bytes=512), 40.0, 0)
        closing = registry.admit("b", FakeWriter(buffered_bytes=512, closing=True), 40.0, 0)
        assert buffered.write_buffer_bytes() == 512
        assert closing.write_buffer_bytes() == 0


class TestBarrier:
    def _ready_registry(self, count):
        registry = SessionRegistry(capacity=count)
        sessions = []
        for i in range(count):
            session = registry.admit(f"c{i}", FakeWriter(), 40.0, joined_slot=0)
            session.ready = True
            sessions.append(session)
        return registry, sessions

    def test_reports_complete(self):
        registry, sessions = self._ready_registry(2)
        assert not registry.reports_complete(0)
        sessions[0].store_report(report_for(0), folded_slots=0)
        assert not registry.reports_complete(0)
        sessions[1].store_report(report_for(0), folded_slots=0)
        assert registry.reports_complete(0)

    def test_unready_and_late_joiners_do_not_block(self):
        registry = SessionRegistry(capacity=3)
        sessions = []
        for i in range(2):
            session = registry.admit(f"c{i}", FakeWriter(), 40.0, joined_slot=0)
            session.ready = True
            sessions.append(session)
        sessions[1].ready = False
        late = registry.admit("late", FakeWriter(), 40.0, joined_slot=7)
        late.ready = True
        sessions[0].store_report(report_for(0), folded_slots=0)
        assert registry.reports_complete(0)

    def test_wait_reports_completes_on_notify(self):
        async def scenario():
            registry, sessions = self._ready_registry(2)
            sessions[0].store_report(report_for(0), folded_slots=0)

            waiter = asyncio.ensure_future(
                registry.wait_reports(0, timeout_s=30.0)
            )
            # Yield until the waiter is parked on the report event —
            # pure scheduling, no wall-clock sleeps to race against.
            for _ in range(10):
                await asyncio.sleep(0)
            assert not waiter.done()
            sessions[1].store_report(report_for(0), folded_slots=0)
            registry.notify_report()
            return await waiter

        assert asyncio.run(scenario()) is True

    def test_wait_reports_times_out(self):
        async def scenario():
            registry, _ = self._ready_registry(1)
            return await registry.wait_reports(0, timeout_s=0.02)

        assert asyncio.run(scenario()) is False

    def test_departure_unblocks_barrier(self):
        async def scenario():
            registry, sessions = self._ready_registry(2)
            sessions[0].store_report(report_for(0), folded_slots=0)

            waiter = asyncio.ensure_future(
                registry.wait_reports(0, timeout_s=30.0)
            )
            for _ in range(10):
                await asyncio.sleep(0)
            assert not waiter.done()
            registry.release(sessions[1].seat)
            return await waiter

        assert asyncio.run(scenario()) is True

    def test_detached_or_unplanned_sessions_do_not_block(self):
        registry, sessions = self._ready_registry(3)
        sessions[0].store_report(report_for(0), folded_slots=0)
        assert not registry.reports_complete(0)
        registry.detach(sessions[1].seat, slot=0)
        sessions[2].needs_plan = True
        # The detached seat and the freshly-resumed one (no plan yet)
        # can never report this slot; only seat 0's report matters.
        assert registry.reports_complete(0)


class TestDetachResume:
    def test_detach_parks_seat_and_resume_rebinds(self):
        registry = SessionRegistry(capacity=2)
        session = registry.admit("c0", FakeWriter(), 40.0, joined_slot=0)
        session.token = "tok-0"
        assert registry.detach(session.seat, slot=4) is session
        assert session.detached
        assert session.detached_slot == 4
        assert registry.detached_sessions() == [session]
        assert registry.total_detaches == 1
        # Double detach is a no-op.
        assert registry.detach(session.seat, slot=5) is None

        new_writer = FakeWriter()
        resumed = registry.resume("tok-0", new_writer)
        assert resumed is session
        assert not session.detached
        assert session.detached_slot == NEVER_REPORTED
        assert session.writer is new_writer
        assert session.needs_plan
        assert session.resumes == 1
        assert registry.total_resumes == 1
        assert registry.detached_sessions() == []

    def test_resume_requires_matching_token(self):
        registry = SessionRegistry(capacity=2)
        session = registry.admit("c0", FakeWriter(), 40.0, joined_slot=0)
        session.token = "tok-0"
        registry.detach(session.seat, slot=1)
        assert registry.resume("", FakeWriter()) is None
        assert registry.resume("wrong", FakeWriter()) is None
        # A token only matches while its seat is detached.
        registry.resume("tok-0", FakeWriter())
        assert registry.resume("tok-0", FakeWriter()) is None

    def test_wait_attached_returns_on_resume(self):
        async def scenario():
            registry = SessionRegistry(capacity=1)
            session = registry.admit("c0", FakeWriter(), 40.0, joined_slot=0)
            session.token = "tok-0"
            registry.detach(session.seat, slot=0)

            waiter = asyncio.ensure_future(registry.wait_attached(30.0))
            for _ in range(10):
                await asyncio.sleep(0)
            assert not waiter.done()
            registry.resume("tok-0", FakeWriter())
            return await waiter

        assert asyncio.run(scenario()) is True

    def test_wait_attached_times_out_when_nobody_returns(self):
        async def scenario():
            registry = SessionRegistry(capacity=1)
            session = registry.admit("c0", FakeWriter(), 40.0, joined_slot=0)
            registry.detach(session.seat, slot=0)
            return await registry.wait_attached(0.02)

        assert asyncio.run(scenario()) is False

    def test_wait_attached_immediate_when_nothing_detached(self):
        async def scenario():
            registry = SessionRegistry(capacity=1)
            registry.admit("c0", FakeWriter(), 40.0, joined_slot=0)
            return await registry.wait_attached(0.0)

        assert asyncio.run(scenario()) is True

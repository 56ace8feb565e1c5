"""Live session registry: seats, join/leave/timeout, report mailboxes.

A *session* is one connected client bound to one scheduler seat.
Seats are a fixed array (the admission capacity ``K``) so the
planning layer — :class:`~repro.system.server.EdgeServer` with
``num_users = K`` — never reshapes mid-run; an empty seat simply has
no pose history and is skipped by the allocator at zero cost.  Seats
are reassigned lowest-first so a lockstep fleet joining in order
occupies seats ``0..N-1``, which is what makes a loopback run
comparable to the in-process experiment.
"""

from __future__ import annotations

import asyncio
import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.serve.protocol import SlotReport
from repro.serve.protocol2 import BinaryChannelCodec

#: ``last_report_slot`` value before any report has been received.
NEVER_REPORTED = -1


@dataclass
class Session:
    """One connected client bound to a scheduler seat."""

    seat: int
    client: str
    #: ``None`` while the seat is parked awaiting a resume (a migrated
    #: session is installed on its target shard before the client has
    #: reconnected there, so it briefly has no transport at all).
    writer: Optional[asyncio.StreamWriter]
    guideline_mbps: float
    ready: bool = False
    alive: bool = True
    degraded: bool = False
    joined_slot: int = 0
    last_report_slot: int = NEVER_REPORTED
    reports: Dict[int, SlotReport] = field(default_factory=dict)
    planned_slots: int = 0
    missed_reports: int = 0
    late_reports: int = 0
    dropped_frames: int = 0
    #: Resume support: the token a reconnecting client must present,
    #: and whether the seat is currently waiting for that client.
    token: str = ""
    #: Stable trace identity minted at first admission; survives
    #: resumes and cross-shard migrations so per-shard span streams
    #: can be stitched into one per-session timeline.
    trace_id: str = ""
    detached: bool = False
    detached_slot: int = NEVER_REPORTED
    resumes: int = 0
    corrupt_frames: int = 0
    #: Re-attached mid-slot: excluded from the report barrier until a
    #: fresh plan frame reaches the client (it cannot report a slot
    #: whose plan it never received).
    needs_plan: bool = False
    #: Set by the fault injector: the handler sleeps this long before
    #: its next read (a stalled uplink), then clears it.
    stall_read_s: float = 0.0
    #: The codec of the *connection* this session currently rides
    #: (multiplexed sessions share one instance); rebound on every
    #: resume because delta/ack state is per-connection and must start
    #: fresh on a new transport.  Every frame of an attached session
    #: is tagged with its seat as the channel id.
    codec: BinaryChannelCodec = field(default_factory=BinaryChannelCodec)

    def store_report(self, report: SlotReport, folded_slots: int) -> bool:
        """File a report; returns False when it is too old to matter.

        ``folded_slots`` is how many slots the server has already
        folded into scheduler state; a report for one of those (or a
        duplicate) can no longer be used and is only counted.
        """
        if report.slot in self.reports or report.slot < folded_slots:
            self.late_reports += 1
            return False
        self.reports[report.slot] = report
        if report.slot > self.last_report_slot:
            self.last_report_slot = report.slot
        return True

    def take_report(self, slot: int) -> Optional[SlotReport]:
        """Remove and return the report for a slot, if present."""
        return self.reports.pop(slot, None)

    def lag_slots(self, current_slot: int) -> int:
        """How many slots behind this session's reports are."""
        reference = max(self.last_report_slot, self.joined_slot - 1)
        return max(current_slot - 1 - reference, 0)

    def write_buffer_bytes(self) -> int:
        """Bytes queued on this session's socket (backpressure signal)."""
        if self.writer is None:
            return 0
        transport = self.writer.transport
        if transport is None or transport.is_closing():
            return 0
        return int(transport.get_write_buffer_size())


class SessionRegistry:
    """Fixed-capacity seat map with deterministic seat reuse."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._sessions: Dict[int, Session] = {}
        self._free_seats: List[int] = list(range(capacity))
        heapq.heapify(self._free_seats)
        #: Set by connection handlers whenever a report lands, so the
        #: lockstep barrier can re-check completeness without polling.
        self.report_event = asyncio.Event()
        #: Set whenever a detached seat re-attaches, so the resume
        #: barrier can re-check without polling.
        self.attach_event = asyncio.Event()
        self.total_joins = 0
        self.total_leaves = 0
        self.total_timeouts = 0
        self.total_detaches = 0
        self.total_resumes = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        return len(self._sessions)

    def ready_count(self) -> int:
        return sum(1 for s in self._sessions.values() if s.ready and s.alive)

    def active(self) -> List[Session]:
        """Live sessions in seat order (the planning iteration order)."""
        return [
            self._sessions[seat]
            for seat in sorted(self._sessions)
            if self._sessions[seat].alive
        ]

    def get(self, seat: int) -> Optional[Session]:
        return self._sessions.get(seat)

    def admit(
        self,
        client: str,
        writer: Optional[asyncio.StreamWriter],
        guideline_mbps: float,
        joined_slot: int,
    ) -> Session:
        """Bind a client to the lowest free seat."""
        if not self._free_seats:
            raise ConfigurationError(
                f"no free seats: {self.occupancy()}/{self.capacity} occupied"
            )
        seat = heapq.heappop(self._free_seats)
        session = Session(
            seat=seat,
            client=client,
            writer=writer,
            guideline_mbps=guideline_mbps,
            joined_slot=joined_slot,
        )
        self._sessions[seat] = session
        self.total_joins += 1
        return session

    def install_detached(
        self,
        client: str,
        guideline_mbps: float,
        joined_slot: int,
        token: str,
        slot: int,
        trace_id: str = "",
    ) -> Session:
        """Admit a migrated-in session in parked state (no transport).

        The seat is immediately ``detached`` — it joins the resume
        barrier like any parked seat — and carries the token the
        client will present when it reconnects to this shard.  Not
        counted as a detach: ``total_detaches`` tracks transport
        failures, and this seat never had a transport here.
        """
        session = self.admit(client, None, guideline_mbps, joined_slot)
        session.token = token
        session.trace_id = trace_id
        session.ready = True
        session.detached = True
        session.detached_slot = slot
        return session

    def release(self, seat: int, timed_out: bool = False) -> None:
        """Free a seat after a leave, error, or timeout."""
        session = self._sessions.pop(seat, None)
        if session is None:
            return
        session.alive = False
        heapq.heappush(self._free_seats, seat)
        self.total_leaves += 1
        if timed_out:
            self.total_timeouts += 1
        # A departed session can no longer satisfy the barrier.
        self.report_event.set()

    # ------------------------------------------------------------------
    # Detach / resume
    # ------------------------------------------------------------------
    def detach(self, seat: int, slot: int) -> Optional[Session]:
        """Park a seat after a transport failure, awaiting a resume.

        The session stays bound to its seat (so scheduler state —
        pose history, QoE accounting — survives the outage) but is
        excluded from planning and from the lockstep barrier until
        the client re-attaches or the grace window expires.
        """
        session = self._sessions.get(seat)
        if session is None or session.detached:
            return None
        session.detached = True
        session.detached_slot = slot
        self.total_detaches += 1
        # A detached session can no longer satisfy the barrier.
        self.report_event.set()
        return session

    def resume(
        self,
        token: str,
        writer: asyncio.StreamWriter,
        codec: Optional[BinaryChannelCodec] = None,
    ) -> Optional[Session]:
        """Re-attach a detached seat by token; None when no seat matches.

        ``codec`` is the *new* connection's codec; binding it here
        (rather than keeping the old one) is what resets the delta/ack
        maps, so the first report after any resume is absolute — a
        delta against a pose from the dead connection can never
        decode.
        """
        if not token:
            return None
        for seat in sorted(self._sessions):
            session = self._sessions[seat]
            if session.detached and session.token == token:
                session.writer = writer
                session.codec = (
                    codec if codec is not None else BinaryChannelCodec()
                )
                session.detached = False
                session.detached_slot = NEVER_REPORTED
                session.stall_read_s = 0.0
                session.needs_plan = True
                session.resumes += 1
                self.total_resumes += 1
                self.attach_event.set()
                self.report_event.set()
                return session
        return None

    def detached_sessions(self) -> List[Session]:
        """Seats currently awaiting a resume, in seat order."""
        return [
            self._sessions[seat]
            for seat in sorted(self._sessions)
            if self._sessions[seat].detached
        ]

    async def wait_attached(self, timeout_s: float) -> bool:
        """Block until no seat is detached, or the timeout elapses.

        Returns True when every detached seat re-attached (or was
        released) in time — the resume-barrier primitive that keeps
        lockstep accounting independent of reconnect wall time.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while self.detached_sessions():
            remaining_s = deadline - loop.time()
            if remaining_s <= 0:
                return False
            self.attach_event.clear()
            try:
                await asyncio.wait_for(self.attach_event.wait(), remaining_s)
            except asyncio.TimeoutError:
                return not self.detached_sessions()
        return True

    # ------------------------------------------------------------------
    # Lockstep barrier support
    # ------------------------------------------------------------------
    def notify_report(self) -> None:
        """Wake the slot loop: a report (or departure) landed."""
        self.report_event.set()

    def reports_complete(self, slot: int) -> bool:
        """True when every live planned session has reported ``slot``."""
        return all(
            slot in session.reports
            for session in self.active()
            if session.ready
            and session.joined_slot <= slot
            and not session.detached
            and not session.needs_plan
        )

    async def wait_reports(self, slot: int, timeout_s: float) -> bool:
        """Block until ``reports_complete(slot)`` or the timeout.

        Returns True when the barrier completed, False on timeout
        (remaining sessions are then treated as lagging).
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while not self.reports_complete(slot):
            remaining_s = deadline - loop.time()
            if remaining_s <= 0:
                return False
            self.report_event.clear()
            try:
                await asyncio.wait_for(self.report_event.wait(), remaining_s)
            except asyncio.TimeoutError:
                return self.reports_complete(slot)
        return True

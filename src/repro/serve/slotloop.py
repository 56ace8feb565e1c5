"""The server's fixed-cadence slot loop.

Every ``slot_s`` the loop snapshots the connected sessions, folds the
previous slot's client reports into the scheduler, runs Algorithm 1
once, emulates the RTP tile delivery, and fans one plan frame out per
connection — the fold / allocate / encode / send pipeline of
Fig. 4, with every stage timed against the slot deadline.

The emulated network is the experiment's own
:class:`~repro.system.experiment.DataPlane` (TC throttles, router
fair-sharing, fading, interference, RTP loss), and the edge server is
built by the same
:meth:`~repro.system.experiment.SystemExperiment.edge_server`, so a
lockstep loopback run with a full house of clients reproduces
:meth:`~repro.system.experiment.SystemExperiment.run_repeat` by
construction.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.content.tiles import VideoId
from repro.errors import TransportError
from repro.faults.injection import FaultInjector, truncate_frame_bytes
from repro.faults.schedule import (
    FAULT_DISCONNECT,
    FAULT_STALL_READ,
    FAULT_STALL_WRITE,
    FAULT_TRUNCATE_FRAME,
)
from repro.obs.config import Obs
from repro.obs.flight import (
    TRIGGER_DEADLINE_MISS,
    TRIGGER_SESSION_RESUME_FAILED,
    TRIGGER_SLO_BREACH,
    TRIGGER_WRITE_DROP,
)
from repro.obs.slo import SloEngine
from repro.serve.config import ServeConfig
from repro.serve.metrics import ServingMetrics
from repro.serve.protocol import EndOfRun, TilePlan, pose_to_wire
from repro.serve.protocol2 import BinaryChannelCodec
from repro.serve.sessions import Session, SessionRegistry
from repro.simulation.metrics import summarize_ledger
from repro.system.client import MAX_DELAY_SLOTS, clamp_delay_slots
from repro.system.experiment import DataPlane
from repro.system.server import EdgeServer, SlotPlan
from repro.system.telemetry import SlotUserRecord
from repro.prediction.pose import Pose

#: The minimum positive quality level a degraded session is held to
#: (the constraint (7) floor: keep serving, at the cheapest rate).
MIN_LEVEL = 1


class SlotLoop:
    """Drives the serving pipeline for one run.

    In **lockstep** mode each slot ends at a report barrier: the loop
    waits (bounded by ``report_timeout_s``) until every live session
    has reported the slot, which removes wall-clock influence from
    the planning pipeline entirely.  In **paced** mode the loop
    free-runs at the ``slot_s`` cadence; a session whose report for
    the previous slot has not arrived is charged a failed slot
    (indicator 0, worst-case delay) and, once it falls more than
    ``lag_degrade_slots`` behind, is degraded to the minimum level
    until it catches up.
    """

    def __init__(
        self,
        config: ServeConfig,
        server: EdgeServer,
        registry: SessionRegistry,
        metrics: ServingMetrics,
        data_plane: DataPlane,
        obs: Optional[Obs] = None,
        injector: Optional[FaultInjector] = None,
        slo: Optional[SloEngine] = None,
    ) -> None:
        self.config = config
        self.server = server
        self.registry = registry
        self.metrics = metrics
        self.data_plane = data_plane
        self.obs = obs if obs is not None else Obs.disabled(metrics.registry)
        self.injector = injector if injector is not None else FaultInjector()
        #: Optional burn-rate evaluator; reads counters only, so an
        #: attached engine never perturbs planning.
        self.slo = slo
        self.slots_run = 0
        self._stop = asyncio.Event()
        #: (slot, plan, achieved) awaiting the next fold.
        self._pending: Optional[Tuple[int, SlotPlan, List[float]]] = None
        #: Set whenever ``slots_run`` advances (and when the loop
        #: exits), so tests can await progress instead of polling.
        self._slot_event = asyncio.Event()
        self._finished = False
        #: In-flight delayed writes from injected ``stall_write`` faults.
        self._stall_tasks: Set["asyncio.Task[None]"] = set()
        #: Plan frames queued by the last send stage, for the send span.
        self._sent_frames = 0
        #: Coordinator hook (:mod:`repro.shard`): invoked once per slot
        #: at the only deterministic migration point — right after the
        #: previous slot's reports are folded and before the upcoming
        #: slot is planned, so a migrated seat's state is complete and
        #: no plan is in flight for it.  The hook runs synchronously
        #: (ordered handoffs); returning ``False`` aborts the loop
        #: before planning (a killed shard).  ``None``: inert.
        self.slot_hook: Optional[Callable[[int], bool]] = None

    def request_stop(self) -> None:
        """Ask the loop to finish after the current slot."""
        self._stop.set()

    async def wait_slots(self, count: int) -> int:
        """Block until ``slots_run`` reaches ``count`` (or the loop ends).

        The event-driven replacement for polling ``slots_run`` in a
        sleep loop; returns the current ``slots_run``.
        """
        while self.slots_run < count and not self._finished:
            self._slot_event.clear()
            if self.slots_run >= count or self._finished:
                break
            await self._slot_event.wait()
        return self.slots_run

    # ------------------------------------------------------------------
    # Per-slot pipeline stages
    # ------------------------------------------------------------------
    def _fold_pending(self) -> None:
        """Fold the previous slot's reports into the scheduler state.

        Sessions that reported contribute their measured indicator,
        delay, ACKs, and pose upload (exactly the experiment's uplink
        fold); planned sessions that did not report are charged a
        failed slot; empty seats are recorded as idle (level 0).
        """
        if self._pending is None:
            return
        slot, plan, achieved = self._pending
        self._pending = None
        num_users = self.config.max_users
        indicators: List[int] = []
        delays_slots: List[float] = []
        delivered_ids: List[List[int]] = []
        released_ids: List[List[int]] = []
        poses: List[Optional[Pose]] = []
        for seat in range(num_users):
            session = self.registry.get(seat)
            report = (
                session.take_report(slot)
                if session is not None and session.alive
                else None
            )
            if report is not None:
                indicators.append(1 if report.indicator else 0)
                delays_slots.append(clamp_delay_slots(report.delay_slots))
                delivered_ids.append(list(report.delivered_ids))
                released_ids.append(list(report.released_ids))
                poses.append(Pose.from_vector(report.pose))
            elif plan.users[seat].level > 0:
                # A planned session went silent: charge a failed slot.
                indicators.append(0)
                delays_slots.append(MAX_DELAY_SLOTS)
                delivered_ids.append([])
                released_ids.append([])
                poses.append(None)
                self.metrics.record_missed_report()
                if session is not None:
                    session.missed_reports += 1
            else:
                # Empty or idle seat: a level-0 slot, as the
                # experiment records allocator-skipped users.
                indicators.append(0)
                delays_slots.append(0.0)
                delivered_ids.append([])
                released_ids.append([])
                poses.append(None)
            self.metrics.telemetry.add(
                SlotUserRecord(
                    slot=slot,
                    user=seat,
                    level=plan.users[seat].level,
                    demand_mbps=plan.users[seat].demand_mbps,
                    achieved_mbps=achieved[seat],
                    believed_cap_mbps=self.server.estimated_cap(seat),
                    # The report carries only the indicator (displayed
                    # and covered), so it fills both fields.
                    displayed=bool(indicators[-1]),
                    covered=bool(indicators[-1]),
                    delay_slots=delays_slots[-1],
                )
            )
        # Pose uploads land after every seat's ACKs, as in the
        # experiment's in-memory uplink.
        for seat, pose in enumerate(poses):
            if pose is not None:
                self.server.observe_pose(seat, pose)
        self.server.complete_slot(
            plan, indicators, delays_slots, achieved, delivered_ids, released_ids
        )
        self.slots_run = slot + 1
        self._slot_event.set()
        self.metrics.set_late_reports(
            sum(s.late_reports for s in self.registry.active())
        )

    def _degradation_caps(self, slot: int) -> Optional[List[int]]:
        """Per-seat level caps for overload / lagging sessions.

        Returns ``None`` when nothing is degraded (the common case);
        otherwise a list with ``MIN_LEVEL`` for degraded seats and
        ``-1`` (no cap) elsewhere.
        """
        caps = [-1] * self.config.max_users
        any_degraded = False
        for session in self.registry.active():
            if not session.ready or session.detached:
                continue
            lagging = (
                not self.config.lockstep
                and session.lag_slots(slot) > self.config.lag_degrade_slots
            )
            backpressured = (
                session.write_buffer_bytes() > self.config.write_degrade_bytes
            )
            session.degraded = lagging or backpressured
            if session.degraded:
                caps[session.seat] = MIN_LEVEL
                any_degraded = True
                self.metrics.record_degraded_user_slot()
        return caps if any_degraded else None

    def _encode_frames(
        self,
        slot: int,
        plan: SlotPlan,
        achieved: Sequence[float],
    ) -> List[Tuple[Session, TilePlan]]:
        """Emulate RTP delivery and build one plan frame per session.

        The RTP channel is sampled for *every* seat in seat order —
        seats without payload draw no randomness — to keep the RNG
        stream aligned with the experiment.
        """
        frames: List[Tuple[Session, TilePlan]] = []
        demands = plan.demands_mbps
        for seat in range(self.config.max_users):
            user_plan = plan.users[seat]
            result = self.data_plane.transmit(
                user_plan.missing_bits, demands[seat], achieved[seat]
            )
            session = self.registry.get(seat)
            if (
                session is None
                or not session.alive
                or not session.ready
                or session.detached
            ):
                continue
            video_ids = tuple(
                VideoId.encode(key) for key in user_plan.missing_keys
            )
            frames.append(
                (
                    session,
                    TilePlan(
                        slot=slot,
                        level=user_plan.level,
                        predicted_pose=(
                            pose_to_wire(user_plan.predicted_pose.as_vector())
                            if user_plan.predicted_pose is not None
                            else None
                        ),
                        video_ids=video_ids,
                        tile_bits=tuple(user_plan.missing_bits),
                        lost_positions=result.lost_tile_indices,
                        duration_s=result.duration_s,
                        startup_delay_s=user_plan.startup_delay_s,
                        demand_mbps=user_plan.demand_mbps,
                        achieved_mbps=float(achieved[seat]),
                        degraded=session.degraded,
                    ),
                )
            )
        return frames

    def _send_frames(self, frames: Sequence[Tuple[Session, TilePlan]]) -> int:
        """Queue plan frames without blocking the loop.

        A connection whose write buffer is past the drop watermark has
        its frame dropped (counted) rather than queued — the slot
        deadline is never spent on a dead socket.  Returns the number
        of frames dropped this slot.

        Frames for sessions multiplexed on a shared connection
        (``session.channel >= 0``) are grouped and sent as one
        ``PLAN_BATCH`` frame per connection, after every per-session
        fault/backpressure decision has been taken individually.

        Two scripted faults act here: ``truncate_frame`` writes half a
        frame and kills the connection (the seat detaches for resume),
        ``stall_write`` delays the frame by the scripted duration.
        """
        dropped = 0
        sent = 0
        batches: Dict[
            int,
            Tuple[
                "asyncio.StreamWriter",
                BinaryChannelCodec,
                List[Tuple[Session, TilePlan]],
            ],
        ] = {}
        for session, frame in frames:
            slot = frame.slot
            if session.writer is None:
                # Parked seat with no transport (mid-migration); the
                # encode stage should have filtered it already.
                continue
            if self.injector.enabled:
                truncate = self.injector.take(
                    slot, session.seat, FAULT_TRUNCATE_FRAME
                )
                if truncate is not None:
                    self._truncate_and_detach(session, frame, slot)
                    continue
                stall = self.injector.take(
                    slot, session.seat, FAULT_STALL_WRITE
                )
                if stall is not None:
                    self._schedule_stalled_write(
                        session, frame, stall.duration_s
                    )
                    session.planned_slots += 1
                    session.needs_plan = False
                    continue
            if session.write_buffer_bytes() > self.config.write_drop_bytes:
                session.dropped_frames += 1
                self.metrics.record_dropped_frame()
                dropped += 1
                continue
            if session.channel >= 0:
                batch = batches.setdefault(
                    id(session.codec),
                    (session.writer, session.codec, []),
                )
                batch[2].append((session, frame))
                continue
            try:
                session.writer.write(session.codec.encode(frame))
            except (ConnectionError, OSError):
                session.alive = False
                continue
            sent += 1
            session.planned_slots += 1
            session.needs_plan = False
        for writer, codec, entries in batches.values():
            batch_frames = codec.encode_plan_batch(
                [(session.channel, frame) for session, frame in entries]
            )
            try:
                for frame_bytes in batch_frames:
                    writer.write(frame_bytes)
            except (ConnectionError, OSError):
                for session, _ in entries:
                    session.alive = False
                continue
            sent += len(batch_frames)
            for session, _ in entries:
                session.planned_slots += 1
                session.needs_plan = False
        self._sent_frames = sent
        self.metrics.record_protocol_frames("sent", sent)
        return dropped

    def _truncate_and_detach(
        self, session: Session, frame: TilePlan, slot: int
    ) -> None:
        """Deliver half a plan frame, then drop the connection.

        The client reads a header promising more bytes than ever
        arrive, sees the close as a mid-frame transport error,
        and comes back through the resume path; the seat is parked
        for the grace window.  Closing the transport flushes the
        partial frame first.
        """
        writer = session.writer
        if writer is not None:
            try:
                writer.write(
                    truncate_frame_bytes(
                        session.codec.encode(frame, channel=session.channel)
                    )
                )
            except (ConnectionError, OSError):
                pass
        session.planned_slots += 1
        self.registry.detach(session.seat, slot)
        self.metrics.record_disconnect()
        if writer is not None:
            writer.close()

    def _schedule_stalled_write(
        self, session: Session, frame: TilePlan, duration_s: float
    ) -> None:
        """Queue a frame after a scripted delay (a choked downlink)."""
        writer = session.writer
        if writer is None:
            return
        codec = session.codec
        channel = session.channel

        async def _delayed() -> None:
            await asyncio.sleep(duration_s)
            try:
                writer.write(codec.encode(frame, channel=channel))
            except (TransportError, ConnectionError, OSError):
                pass

        task = asyncio.ensure_future(_delayed())
        self._stall_tasks.add(task)
        task.add_done_callback(self._stall_tasks.discard)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Run every transmission slot, then fold the last reports."""
        loop = asyncio.get_running_loop()
        next_tick_s = loop.time()
        last_slot = -1
        for slot in range(self.config.num_tx_slots):
            if self._stop.is_set() or self.registry.ready_count() == 0:
                break
            last_slot = slot
            if self.injector.enabled:
                self._inject_connection_faults(slot)
            await self._resume_barrier(slot)
            if self._stop.is_set() or self.registry.ready_count() == 0:
                break
            started_s = loop.time()
            # Span building never reads a clock itself — it reuses the
            # stage-boundary readings the deadline bookkeeping already
            # takes, which is what keeps instrumentation inert.
            builder = (
                self.obs.tracer.slot(slot, started_s)
                if self.obs.active
                else None
            )
            if builder is not None and self.config.shard_index >= 0:
                builder.span.attrs["shard"] = self.config.shard_index

            stage_s = started_s
            self._fold_pending()
            stage_end_s = loop.time()
            self.metrics.record_stage("fold", stage_end_s - stage_s)
            if builder is not None:
                builder.stage("fold", stage_s, stage_end_s)

            if self.slot_hook is not None and not self.slot_hook(slot):
                # The coordinator pulled this shard out of service
                # (shard_kill): everything folded, nothing planned —
                # migrated seats leave with a complete ledger.
                break

            stage_s = stage_end_s
            caps = self._degradation_caps(slot)
            plan = self.server.plan_slot(caps)
            stage_end_s = loop.time()
            self.metrics.record_stage("allocate", stage_end_s - stage_s)
            if builder is not None:
                builder.stage(
                    "allocate", stage_s, stage_end_s,
                    degraded_seats=caps is not None,
                )
                for seat in range(self.config.max_users):
                    user_plan = plan.users[seat]
                    if user_plan.level > 0:
                        session = self.registry.get(seat)
                        trace_id = (
                            session.trace_id if session is not None else ""
                        )
                        builder.user(
                            seat,
                            level=user_plan.level,
                            demand_mbps=user_plan.demand_mbps,
                            trace=trace_id,
                        )

            stage_s = stage_end_s
            self.data_plane.step()
            achieved = self.data_plane.achieved(plan.demands_mbps)
            frames = self._encode_frames(slot, plan, achieved)
            stage_end_s = loop.time()
            self.metrics.record_stage("encode", stage_end_s - stage_s)
            if builder is not None:
                builder.stage("encode", stage_s, stage_end_s,
                              frames=len(frames))

            stage_s = stage_end_s
            dropped = self._send_frames(frames)
            stage_end_s = loop.time()
            self.metrics.record_stage("send", stage_end_s - stage_s)
            if builder is not None:
                builder.stage(
                    "send", stage_s, stage_end_s, dropped=dropped,
                    sent_frames=self._sent_frames,
                )

            elapsed_s = stage_end_s - started_s
            self.metrics.record_slot(elapsed_s)
            self.metrics.record_detached_user_slots(
                len(self.registry.detached_sessions())
            )
            if builder is not None:
                span = builder.finish(
                    stage_end_s, deadline_hit=elapsed_s < self.config.slot_s
                )
                self.obs.flight.record(span)
                self.obs.tracer.emit(span)
                if elapsed_s >= self.config.slot_s:
                    self.obs.flight.trigger(
                        TRIGGER_DEADLINE_MISS,
                        detail=f"slot pipeline took {elapsed_s * 1e3:.3f} ms",
                        slot=slot,
                    )
                if dropped:
                    self.obs.flight.trigger(
                        TRIGGER_WRITE_DROP,
                        detail=f"{dropped} plan frame(s) dropped at the "
                               "write watermark",
                        slot=slot,
                    )
            if self.slo is not None:
                for status in self.slo.evaluate(slot):
                    if status.newly_breached:
                        self.obs.flight.trigger(
                            TRIGGER_SLO_BREACH,
                            detail=(
                                f"{status.name}: burn {status.burn:.2f}x "
                                f"over a {status.window_slots}-slot window"
                            ),
                            slot=slot,
                        )
            self._pending = (slot, plan, achieved)

            # Drain deferred trace/dump writes off the measured stage
            # path: the write happens in a worker thread, after the
            # deadline accounting above, never on the loop itself.
            await self.obs.aflush()

            if self.config.lockstep:
                await self.registry.wait_reports(
                    slot, self.config.report_timeout_s
                )
            else:
                next_tick_s += self.config.slot_s
                sleep_s = next_tick_s - loop.time()
                if sleep_s > 0:
                    await asyncio.sleep(sleep_s)

        # Give stragglers one last chance to report the final slot,
        # then fold it so the ledgers cover every planned slot.
        if self._pending is not None and not self.config.lockstep:
            await self.registry.wait_reports(
                last_slot, min(self.config.slot_s * 4, self.config.report_timeout_s)
            )
        self._fold_pending()
        if self._stall_tasks:
            await asyncio.gather(*self._stall_tasks, return_exceptions=True)
        self._finished = True
        self._slot_event.set()

    # ------------------------------------------------------------------
    # Fault injection and resume
    # ------------------------------------------------------------------
    def _inject_connection_faults(self, slot: int) -> None:
        """Fire this slot's server-side faults, seat-ordered.

        ``disconnect`` closes the transport and parks the seat;
        ``stall_read`` arms a scripted pause on the seat's connection
        handler.  (``truncate_frame`` / ``stall_write`` fire later,
        in the send stage, where the frame exists.)
        """
        for event in self.injector.take_kind(slot, FAULT_DISCONNECT):
            session = self.registry.get(event.seat)
            if session is None or not session.alive or session.detached:
                continue
            self.registry.detach(event.seat, slot)
            self.metrics.record_disconnect()
            if session.writer is not None:
                session.writer.close()
        for event in self.injector.take_kind(slot, FAULT_STALL_READ):
            session = self.registry.get(event.seat)
            if session is None or not session.alive or session.detached:
                continue
            session.stall_read_s = event.duration_s

    async def _resume_barrier(self, slot: int) -> None:
        """Hold the slot while any seat is detached (lockstep only).

        Pausing planning while a reconnect is in flight is what keeps
        missed-slot accounting a function of the fault schedule alone:
        however long the client takes to come back (within grace), it
        re-attaches before the next plan, so the same seed always
        yields the same per-seat slot ledger.  Seats whose grace
        expires are released deterministically at this slot.  Paced
        mode never pauses; its grace window is counted in slots.
        """
        if self.config.lockstep:
            if not self.registry.detached_sessions():
                return
            if self.config.resume_grace_s > 0:
                attached = await self.registry.wait_attached(
                    self.config.resume_grace_s
                )
                if attached:
                    return
            self._expire_detached(slot, self.registry.detached_sessions())
        else:
            expired = [
                session
                for session in self.registry.detached_sessions()
                if slot - session.detached_slot >= self.config.resume_grace_slots
            ]
            if expired:
                self._expire_detached(slot, expired)

    def _expire_detached(
        self, slot: int, sessions: Sequence[Session]
    ) -> None:
        """Give up on detached seats whose grace window has closed."""
        for session in sessions:
            self.registry.release(session.seat)
            self.metrics.record_leave()
            self.metrics.record_resume_failure()
            self.server.reset_user(session.seat)
            self.obs.flight.trigger(
                TRIGGER_SESSION_RESUME_FAILED,
                detail=(
                    f"seat {session.seat} ({session.client}) detached at "
                    f"slot {session.detached_slot} never resumed"
                ),
                slot=slot,
            )

    def end_frames(self, reason: str) -> List[Tuple[Session, EndOfRun]]:
        """Build the end-of-run frame for every live session."""
        frames: List[Tuple[Session, EndOfRun]] = []
        for session in self.registry.active():
            if session.detached:
                # No transport to speak over; the grace window ends
                # with the run.
                continue
            summary = summarize_ledger(
                self.server.scheduler.ledgers[session.seat],
                self.config.experiment.weights,
            )
            payload: Dict[str, float] = {
                "qoe": summary.qoe,
                "quality": summary.quality,
                "delay": summary.delay,
                "variance": summary.variance,
                "mean_level": summary.mean_level,
            }
            frames.append(
                (
                    session,
                    EndOfRun(
                        slots=self.slots_run, reason=reason, summary=payload
                    ),
                )
            )
        return frames

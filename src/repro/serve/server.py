"""The live edge server: sockets in front of the slot-loop pipeline.

:class:`VrServeServer` binds a TCP listener, admits clients onto
scheduler seats, and drives the :class:`~repro.serve.slotloop.SlotLoop`
until ``duration_slots`` transmission slots have run or every client
has left.  The planning stack and the emulated network are the
in-process experiment's own: the
:class:`~repro.system.server.EdgeServer` built by
:meth:`~repro.system.experiment.SystemExperiment.edge_server` and the
seeded :class:`~repro.system.experiment.DataPlane`.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.core.allocation import DensityValueGreedyAllocator
from repro.errors import TransportError
from repro.obs.buildinfo import config_fingerprint, register_build_info
from repro.obs.config import TRIGGER_ADMISSION_REJECT, Obs
from repro.prediction.pose import Pose
from repro.serve.admission import (
    REJECT_DRAINING,
    REJECT_RESUME,
    AdmissionPolicy,
)
from repro.serve.config import PROTOCOL_VERSION, ServeConfig, resume_enabled
from repro.serve.metrics import ServingMetrics
from repro.serve.protocol import (
    Bye,
    JoinRequest,
    Ready,
    Reject,
    SlotReport,
    Welcome,
)
from repro.serve.protocol2 import (
    BinaryChannelCodec,
    WireFrame,
    read_units,
    send_frame,
)
from repro.serve.sessions import Session, SessionRegistry
from repro.serve.slotloop import SlotLoop
from repro.system.experiment import DataPlane, SystemExperiment

if TYPE_CHECKING:
    from repro.faults.injection import FaultInjector
    from repro.obs.http import ObsHttpServer
    from repro.obs.slo import SloEngine


@dataclass(frozen=True)
class ServeResult:
    """Outcome of one serving run."""

    port: int
    slots: int
    metrics: ServingMetrics

    @property
    def deadline_hit_rate(self) -> float:
        return self.metrics.deadline_hit_rate


class VrServeServer:
    """One edge-serving deployment over real loopback/LAN sockets.

    Usage::

        server = VrServeServer(serve_setup1(max_users=8))
        result = await server.run()     # binds, serves, shuts down

    or, for tests that need the bound port before clients start::

        await server.start()
        port = server.port
        result = await server.run()
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        cfg = config.experiment
        self.experiment = SystemExperiment(cfg)
        # The planner run_repeat uses, so a lockstep serve equals it.
        self.allocator = DensityValueGreedyAllocator()
        self.data_plane = DataPlane(cfg)
        self.edge = self.experiment.edge_server(self.allocator, self.data_plane)
        self.registry = SessionRegistry(config.max_users)
        self.admission = AdmissionPolicy(config.max_users, PROTOCOL_VERSION)
        self.obs = Obs.from_config(config.obs)
        # A fault-free server loads nothing from the fault layer.
        self.injector: Optional[FaultInjector] = None
        if config.faults is not None:
            from repro.faults.injection import FaultInjector

            self.injector = FaultInjector(
                config.faults, registry=self.obs.registry
            )
        self.metrics = ServingMetrics(
            config.slot_s,
            registry=self.obs.registry,
            exact_latency=config.exact_stage_latency,
        )
        register_build_info(
            self.obs.registry,
            shard=config.shard_index,
            config_hash=config_fingerprint(config),
        )
        self.slo: Optional[SloEngine] = None
        if config.obs.slo is not None:
            from repro.obs.slo import SloEngine

            self.slo = SloEngine(
                config.obs.slo, self.obs.registry, seats=config.max_users
            )
        self.slot_loop = SlotLoop(
            config, self.edge, self.registry, self.metrics, self.data_plane,
            obs=self.obs, injector=self.injector, slo=self.slo,
        )
        self.edge.scheduler.attach_registry(self.obs.registry)
        self._listener: Optional[asyncio.AbstractServer] = None
        self._bound_port = 0
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        self._ready_event = asyncio.Event()
        self._http: Optional[ObsHttpServer] = None
        if config.obs.http_port is not None:
            from repro.obs.http import ObsHttpServer

            self._http = ObsHttpServer(
                self.obs.registry,
                health_fn=self.health,
                host=config.obs.http_host,
                port=config.obs.http_port,
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._bound_port == 0:
            raise TransportError("server is not listening yet")
        return self._bound_port

    @property
    def metrics_port(self) -> int:
        """The observability endpoint's bound port (when enabled)."""
        if self._http is None:
            raise TransportError("observability endpoint is not configured")
        return self._http.port

    def health(self) -> Dict[str, object]:
        """Liveness payload for the ``/healthz`` endpoint."""
        payload: Dict[str, object] = {
            "slots_run": self.slot_loop.slots_run,
            "num_tx_slots": self.config.num_tx_slots,
            "sessions": self.registry.occupancy(),
            "ready": self.registry.ready_count(),
            "deadline_hit_rate": self.metrics.deadline_hit_rate,
        }
        if self.slo is not None:
            payload["slo"] = self.slo.status()
        return payload

    async def start(self) -> None:
        """Bind the listener (without running the slot loop yet)."""
        if self._listener is not None:
            return
        self._listener = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        if self._listener.sockets:
            self._bound_port = int(
                self._listener.sockets[0].getsockname()[1]
            )
        if self._http is not None:
            await self._http.start()

    async def run(self) -> ServeResult:
        """Serve one full run and shut down cleanly."""
        await self.start()
        try:
            await self.wait_for_ready(
                self.config.expect_clients, self.config.start_timeout_s
            )
            await self.slot_loop.run()
        finally:
            await self._shutdown()
        return ServeResult(
            port=self._bound_port,
            slots=self.slot_loop.slots_run,
            metrics=self.metrics,
        )

    async def run_admitted(self) -> ServeResult:
        """Serve a run whose readiness someone else already gated.

        A shard coordinator (:mod:`repro.shard`) admits clients across
        several servers and releases them all at once; each shard then
        runs its slot loop directly without waiting for its own
        ``expect_clients`` quorum.
        """
        await self.start()
        try:
            await self.slot_loop.run()
        finally:
            await self._shutdown()
        return ServeResult(
            port=self._bound_port,
            slots=self.slot_loop.slots_run,
            metrics=self.metrics,
        )

    async def wait_for_ready(self, count: int, timeout_s: float) -> None:
        """Block until ``count`` sessions are ready (joined + posed)."""
        loop = asyncio.get_running_loop()
        deadline_s = loop.time() + timeout_s
        while self.registry.ready_count() < count:
            remaining_s = deadline_s - loop.time()
            if remaining_s <= 0:
                raise TransportError(
                    f"timed out waiting for {count} clients "
                    f"({self.registry.ready_count()} ready after "
                    f"{timeout_s:.1f}s)"
                )
            self._ready_event.clear()
            try:
                await asyncio.wait_for(self._ready_event.wait(), remaining_s)
            except asyncio.TimeoutError:
                continue

    async def aclose(self) -> None:
        """Tear down a server that never ran (or already finished).

        The shard supervisor keeps spare servers bound and listening;
        one that is replaced without serving a run still has to close
        its listener, observability endpoint, and accepted connections.
        """
        if self._http is not None:
            await self._http.stop()
        await self.obs.aclose()
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        if self._conn_tasks:
            for task in self._conn_tasks:
                task.cancel()
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            self._conn_tasks.clear()

    async def _shutdown(self) -> None:
        """Send end-of-run frames, close every socket, reap all tasks."""
        if self._http is not None:
            await self._http.stop()
        await self.obs.aclose()
        self.admission.start_draining()
        for session, frame in self.slot_loop.end_frames("complete"):
            if session.writer is None:
                continue
            try:
                await send_frame(
                    session.writer, session.codec, frame,
                    channel=session.channel,
                )
            except (TransportError, ConnectionError, OSError):
                session.alive = False
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        if self._conn_tasks:
            # Clients answer the end frame with a bye/EOF; give the
            # handlers a short grace period, then cancel stragglers.
            done, pending = await asyncio.wait(
                set(self._conn_tasks), timeout=self.config.join_timeout_s
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            self._conn_tasks.clear()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._handle_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one physical connection, which may carry many sessions.

        The first frame must be a binary join; further joins may
        arrive *on the same connection* as channel-tagged JOIN frames
        — that is the multiplexed load-generator path.  A connection
        that opens with anything else (a legacy JSON join included) is
        closed at once.  Sessions that leave with a BYE are torn down
        immediately; whatever remains when the connection dies is
        handled by the disconnect/resume logic, exactly as for a
        dedicated socket.
        """
        codec = BinaryChannelCodec()
        sessions: Dict[int, Session] = {}
        timed_out = False
        try:
            session = await self._admit_first(reader, writer, codec)
            if session is None:
                return
            sessions[session.seat] = session
            await self._connection_frames(reader, writer, codec, sessions)
        except asyncio.TimeoutError:
            timed_out = True
        except (TransportError, ConnectionError, OSError):
            pass
        finally:
            for session in list(sessions.values()):
                self._tear_down(
                    session, writer, said_bye=False, timed_out=timed_out
                )
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _tear_down(
        self,
        session: Optional[Session],
        writer: asyncio.StreamWriter,
        said_bye: bool,
        timed_out: bool,
    ) -> None:
        """Release or park the seat when its connection handler exits.

        A connection that died without a BYE is a *disconnect*: with
        resume enabled the seat is parked (scheduler state intact)
        until the client re-attaches or the grace window expires.
        Voluntary leaves, timeouts, and shutdown keep the original
        release-immediately behaviour.
        """
        if session is None:
            return
        if session.writer is not writer:
            # The seat was already re-bound to a newer connection
            # (resume won the race); this handler owns nothing now.
            return
        if session.detached:
            # Parked by the slot loop (injected disconnect); the
            # grace logic owns the seat.
            return
        lost = not said_bye and not timed_out and not self.admission.draining
        if lost and resume_enabled(self.config):
            self.registry.detach(session.seat, self.slot_loop.slots_run)
            self.metrics.record_disconnect()
            return
        if lost:
            self.metrics.record_disconnect()
        self.registry.release(session.seat, timed_out=timed_out)
        self.metrics.record_leave(timed_out=timed_out)
        self.edge.reset_user(session.seat)
        self._ready_event.set()

    async def _admit_first(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        codec: BinaryChannelCodec,
    ) -> Optional[Session]:
        """Read the connection's opening join and admit it."""
        units = await asyncio.wait_for(
            read_units(reader, codec), self.config.join_timeout_s
        )
        if units is None:
            raise TransportError("connection closed before a join frame")
        first = units[0]
        if not isinstance(first.message, JoinRequest):
            got = (
                "corrupt frame"
                if first.message is None
                else type(first.message).__name__
            )
            raise TransportError(f"expected a join frame first, got {got}")
        return await self._admit(first.message, writer, codec, first.channel)

    async def _admit(
        self,
        message: JoinRequest,
        writer: asyncio.StreamWriter,
        codec: BinaryChannelCodec,
        channel: int,
    ) -> Optional[Session]:
        """Run the join handshake; returns None when rejected.

        The reply is tagged with the client-chosen ``channel``.
        """
        if message.token:
            return await self._resume(message, writer, codec, channel)
        decision = self.admission.decide(
            message.version, self.registry.occupancy()
        )
        if not decision.admitted:
            self.metrics.record_reject(decision.code)
            self.obs.flight.trigger(
                TRIGGER_ADMISSION_REJECT,
                detail=f"{decision.code}: {decision.reason}",
                slot=self.slot_loop.slots_run,
            )
            await send_frame(
                writer,
                codec,
                Reject(
                    code=decision.code,
                    reason=decision.reason,
                    capacity=self.config.max_users,
                ),
                channel=channel,
            )
            return None
        session = self.registry.admit(
            message.client,
            writer,
            guideline_mbps=0.0,
            joined_slot=self.slot_loop.slots_run,
        )
        session.guideline_mbps = self.data_plane.guidelines_mbps[session.seat]
        session.token = self._make_token(session.seat)
        session.trace_id = self._make_trace_id(session.seat)
        session.codec = codec
        if channel >= 0:
            # A channel-tagged join is the multiplexed path: from the
            # welcome on, this session's frames are tagged by seat.
            session.channel = session.seat
        self.metrics.record_join()
        await send_frame(
            writer,
            codec,
            self._welcome(session, resumed=False),
            channel=channel,
        )
        return session

    def _make_token(self, seat: int) -> str:
        """A deterministic per-admission resume token.

        Derived from the run seed, the seat, and the admission
        ordinal, so a same-seed run mints the same tokens — tokens
        are capability handles for the chaos tests, not secrets.
        """
        material = (
            f"{self.config.experiment.seed}:{seat}:{self.registry.total_joins}"
        )
        return hashlib.sha256(material.encode("ascii")).hexdigest()[:32]

    def _make_trace_id(self, seat: int) -> str:
        """A deterministic per-session trace identity.

        Same derivation discipline as :meth:`_make_token` but with a
        distinct salt: the ID is minted once at first admission and
        then *carried* (through resumes and the migration handoff
        blob), never re-minted, so every shard stamps the same ID on
        the session's spans.
        """
        material = (
            f"trace:{self.config.experiment.seed}:{seat}:"
            f"{self.registry.total_joins}"
        )
        return hashlib.sha256(material.encode("ascii")).hexdigest()[:16]

    def _welcome(self, session: Session, resumed: bool) -> Welcome:
        cfg = self.config.experiment
        return Welcome(
            seat=session.seat,
            version=PROTOCOL_VERSION,
            slot_s=cfg.slot_s,
            num_tx_slots=self.config.num_tx_slots,
            guideline_mbps=session.guideline_mbps,
            level_count=self.experiment.database.num_levels,
            world_size_m=cfg.world_size_m,
            world_cell_m=self.experiment.world.cell_size,
            margin_deg=cfg.margin_deg,
            cell_tolerance=cfg.cell_tolerance,
            client_cache_tiles=cfg.client_cache_tiles,
            num_decoders=cfg.num_decoders,
            decode_rate_mbps=cfg.decode_rate_mbps,
            lockstep=self.config.lockstep,
            resume_token=session.token,
            resumed=resumed,
            shard=self.config.shard_index,
        )

    async def _resume(
        self,
        message: JoinRequest,
        writer: asyncio.StreamWriter,
        codec: BinaryChannelCodec,
        channel: int,
    ) -> Optional[Session]:
        """Re-attach a reconnecting client to its detached seat."""
        if self.admission.draining:
            # End-of-run frames are already on the wire (or gone): a
            # resume granted now would hang waiting for a plan that
            # will never come.  Refuse it the way a fresh join is
            # refused, so the client ends cleanly instead of idling.
            self.metrics.record_reject(REJECT_DRAINING)
            await send_frame(
                writer,
                codec,
                Reject(
                    code=REJECT_DRAINING,
                    reason="server is draining; nothing left to resume",
                    capacity=self.config.max_users,
                ),
                channel=channel,
            )
            return None
        # Binding the *new* connection's codec resets the delta/ack
        # maps: the first report after any resume is absolute, never a
        # delta against a dead connection's pose.
        session = self.registry.resume(message.token, writer, codec=codec)
        if session is None:
            self.metrics.record_reject(REJECT_RESUME)
            await send_frame(
                writer,
                codec,
                Reject(
                    code=REJECT_RESUME,
                    reason="resume token matches no detached seat",
                    capacity=self.config.max_users,
                ),
                channel=channel,
            )
            return None
        if channel >= 0:
            session.channel = session.seat
        self.metrics.record_session_resume()
        await send_frame(
            writer,
            codec,
            self._welcome(session, resumed=True),
            channel=channel,
        )
        return session

    async def _connection_frames(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        codec: BinaryChannelCodec,
        sessions: Dict[int, Session],
    ) -> None:
        """Consume a connection's frames until every session is gone.

        Returns normally when the peer closed cleanly (EOF) or the
        last session left with a BYE; sessions still in ``sessions``
        at EOF are handled as disconnects by the caller.
        """
        while sessions:
            stall_s = max(s.stall_read_s for s in sessions.values())
            if stall_s > 0:
                # Injected uplink stall: the handler freezes before
                # its next read, exactly as a radio dropout would.
                for session in sessions.values():
                    session.stall_read_s = 0.0
                await asyncio.sleep(stall_s)
            units = await asyncio.wait_for(
                read_units(reader, codec), self.config.idle_timeout_s
            )
            if units is None:
                return
            for unit in units:
                await self._dispatch_unit(unit, writer, codec, sessions)

    async def _dispatch_unit(
        self,
        unit: WireFrame,
        writer: asyncio.StreamWriter,
        codec: BinaryChannelCodec,
        sessions: Dict[int, Session],
    ) -> None:
        """Route one decoded wire unit to its session."""
        message = unit.message
        session: Optional[Session] = None
        if unit.channel >= 0:
            session = sessions.get(unit.channel)
        elif len(sessions) == 1:
            session = next(iter(sessions.values()))
        if message is None:
            # Quarantine: the framing survived, so the stream is
            # still synchronized — drop the frame, count it, and
            # keep the session (and the whole connection) alive.
            if session is not None:
                session.corrupt_frames += 1
            self.metrics.record_corrupt_frame()
            return
        if isinstance(message, JoinRequest):
            joined = await self._admit(message, writer, codec, unit.channel)
            if joined is not None:
                sessions[joined.seat] = joined
            return
        if session is None:
            # A data frame for a seat this connection does not carry
            # (e.g. a straggler report after a BYE): droppable, but
            # never fatal to the other multiplexed sessions.
            self.metrics.record_corrupt_frame()
            return
        if unit.channel >= 0:
            session.channel = unit.channel
        if isinstance(message, Bye):
            self._tear_down(session, writer, said_bye=True, timed_out=False)
            del sessions[session.seat]
            return
        if isinstance(message, Ready):
            if not session.ready:
                self.edge.observe_pose(
                    session.seat, Pose.from_vector(message.pose)
                )
                session.ready = True
                self._ready_event.set()
        elif isinstance(message, SlotReport):
            session.store_report(message, self.slot_loop.slots_run)
            self.registry.notify_report()
        else:
            raise TransportError(
                f"unexpected {type(message).__name__} frame mid-session"
            )

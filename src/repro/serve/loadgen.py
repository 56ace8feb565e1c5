"""Client-fleet load generator replaying motion traces over sockets.

Each client emulates one commodity phone end-to-end: it joins the
server, replays a seeded :mod:`repro.traces` motion trace, runs the
real client display pipeline (:class:`~repro.system.client.Client`
with a :class:`~repro.system.client.DecoderPool`), evaluates FoV
coverage against its *own* next-slot pose exactly as the in-process
experiment does, and reports delivery/release ACKs, the display
indicator, and the measured delay back each slot.

With ``seed`` equal to the server's experiment seed, client ``i``'s
trace is drawn from ``default_rng((seed, 0, seat, 17))`` — the same
stream :meth:`~repro.system.experiment.SystemExperiment.run_repeat`
uses for user ``seat`` — which is what makes a full-house lockstep
loopback run reproduce the experiment's numbers.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.content.projection import FieldOfView
from repro.content.tiles import GridWorld, TileGrid
from repro.errors import ConfigurationError, TransportError
from repro.faults.injection import FaultInjector, corrupt_frame_bytes
from repro.faults.schedule import (
    CLIENT_KINDS,
    FAULT_CORRUPT_REPORT,
    FAULT_CRASH_CLIENT,
    FAULT_DELAY_REPORT,
    FaultSchedule,
)
from repro.prediction.fov import CoverageEvaluator
from repro.prediction.pose import Pose
from repro.serve.admission import REJECT_RESUME
from repro.serve.config import PROTOCOL_VERSION, ServeConfig
from repro.serve.protocol import (
    Bye,
    EndOfRun,
    JoinRequest,
    Ready,
    Redirect,
    Reject,
    SlotReport,
    TilePlan,
    Welcome,
    pose_to_wire,
)
from repro.serve.protocol2 import (
    BinaryChannelCodec,
    WireFrame,
    read_units,
    send_frame,
)
from repro.serve.server import ServeResult, VrServeServer
from repro.system.client import Client, DecoderPool
from repro.traces.motion import MotionConfig, MotionTraceGenerator
from repro.units import TARGET_FPS

#: Delay clamp applied client-side, matching the experiment loop.
MAX_DELAY_SLOTS = 60.0

#: Redirects one client will follow before giving up — a guard
#: against a misconfigured cluster bouncing a client in a loop, far
#: above anything a working coordinator issues (one greeting redirect
#: plus one per migration).
MAX_REDIRECTS = 8


@dataclass(frozen=True)
class ReconnectPolicy:
    """Self-healing behaviour for one fleet's clients.

    ``max_attempts`` of 0 (the default) disables reconnection — a
    lost connection ends the client, exactly the pre-resume
    behaviour.  When enabled, a client whose connection dies retries
    with capped exponential backoff (``base_s`` doubling by
    ``multiplier`` up to ``max_s``) plus seeded jitter, presenting
    its resume token so the server re-attaches it to its seat.
    """

    max_attempts: int = 0
    base_s: float = 0.05
    multiplier: float = 2.0
    max_s: float = 1.0
    jitter_s: float = 0.02

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise ConfigurationError(
                f"max_attempts must be >= 0, got {self.max_attempts}"
            )
        if self.base_s <= 0:
            raise ConfigurationError(f"base_s must be > 0, got {self.base_s}")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_s < self.base_s:
            raise ConfigurationError(
                f"max_s must be >= base_s, got {self.max_s} < {self.base_s}"
            )
        if self.jitter_s < 0:
            raise ConfigurationError(
                f"jitter_s must be >= 0, got {self.jitter_s}"
            )

    @property
    def enabled(self) -> bool:
        return self.max_attempts > 0

    def backoff_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Delay before reconnect ``attempt`` (1-based), with jitter."""
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        delay_s = min(
            self.base_s * self.multiplier ** (attempt - 1), self.max_s
        )
        if self.jitter_s > 0:
            delay_s += float(rng.uniform(0.0, self.jitter_s))
        return delay_s


@dataclass(frozen=True)
class LoadGenConfig:
    """One client fleet.

    ``latency_s`` / ``jitter_s`` add think-time before each report
    (emulated client-side network latency); the first
    ``slow_clients`` clients use ``slow_latency_s`` instead, which in
    a paced run drives them past the server's lag threshold and into
    degraded (minimum-level) service.  The first ``churn_clients``
    clients leave after ``churn_leave_after_slots`` slots.

    ``faults`` scripts client-side chaos (crashes, corrupt or delayed
    reports) from the same :class:`~repro.faults.schedule.FaultSchedule`
    the server consumes; ``reconnect`` governs how clients heal from
    lost connections.
    """

    host: str = "127.0.0.1"
    port: int = 0
    num_clients: int = 1
    seed: int = 0
    latency_s: float = 0.0
    jitter_s: float = 0.0
    slow_clients: int = 0
    slow_latency_s: float = 0.0
    churn_clients: int = 0
    churn_leave_after_slots: int = 0
    client_prefix: str = "client"
    faults: Optional[FaultSchedule] = None
    reconnect: ReconnectPolicy = field(default_factory=ReconnectPolicy)

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ConfigurationError(
                f"num_clients must be >= 1, got {self.num_clients}"
            )
        if not 0 <= self.port <= 0xFFFF:
            # Port 0 is a placeholder for "resolved later" (the
            # in-process helper fills in the server's bound port).
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port}")
        for name in ("latency_s", "jitter_s", "slow_latency_s"):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        if not 0 <= self.slow_clients <= self.num_clients:
            raise ConfigurationError(
                f"slow_clients must be in [0, {self.num_clients}], "
                f"got {self.slow_clients}"
            )
        if not 0 <= self.churn_clients <= self.num_clients:
            raise ConfigurationError(
                f"churn_clients must be in [0, {self.num_clients}], "
                f"got {self.churn_clients}"
            )
        if self.churn_clients > 0 and self.churn_leave_after_slots < 1:
            raise ConfigurationError(
                "churn_leave_after_slots must be >= 1 when churn_clients > 0"
            )


@dataclass(frozen=True)
class ClientReport:
    """One client's end-of-run view."""

    name: str
    seat: int
    frames: int
    displayed: int
    mean_viewed_quality: float
    mean_delay_slots: float
    fps: float
    end_reason: str
    reject_code: str = ""
    reject_reason: str = ""
    server_summary: Optional[Dict[str, float]] = None
    resumes: int = 0
    redirects: int = 0

    @property
    def rejected(self) -> bool:
        return bool(self.reject_code)


@dataclass(frozen=True)
class FleetReport:
    """All clients' reports for one load-generation run."""

    clients: Tuple[ClientReport, ...]

    @property
    def admitted(self) -> Tuple[ClientReport, ...]:
        return tuple(c for c in self.clients if not c.rejected)

    @property
    def rejected(self) -> Tuple[ClientReport, ...]:
        return tuple(c for c in self.clients if c.rejected)

    def mean_viewed_quality(self) -> Dict[int, float]:
        """Per-seat mean viewed quality across admitted clients."""
        return {
            c.seat: c.mean_viewed_quality
            for c in sorted(self.admitted, key=lambda c: c.seat)
        }


class _ClientState:
    """One phone's cross-connection state.

    Built once from the first WELCOME and kept across reconnects, so
    a resumed session continues its motion trace and display pipeline
    where the outage left them — the client heals, it does not
    restart.
    """

    def __init__(self, config: LoadGenConfig, welcome: Welcome) -> None:
        self.seat = welcome.seat
        world = GridWorld(
            0.0, welcome.world_size_m, 0.0, welcome.world_size_m,
            cell_size=welcome.world_cell_m,
        )
        self.coverage = CoverageEvaluator(
            world,
            TileGrid(),
            FieldOfView(),
            margin_deg=welcome.margin_deg,
            cell_tolerance=welcome.cell_tolerance,
        )
        trace_rng = np.random.default_rng((config.seed, 0, welcome.seat, 17))
        # Stepped on demand: admission costs the same for any run length.
        self.trace = MotionTraceGenerator(
            world, MotionConfig(), welcome.slot_s
        ).tape(welcome.num_tx_slots + 1, trace_rng)
        self.phone = Client(
            welcome.seat,
            welcome.client_cache_tiles,
            DecoderPool(welcome.num_decoders, welcome.decode_rate_mbps),
            welcome.slot_s,
        )
        self.end_reason = "disconnected"
        self.server_summary: Optional[Dict[str, float]] = None
        self.resumes = 0


def _final_report(
    name: str, state: _ClientState, redirects: int = 0
) -> ClientReport:
    phone = state.phone
    frames = len(phone.frames)
    displayed = sum(1 for f in phone.frames if f.displayed)
    mean_quality = (
        sum(f.viewed_quality for f in phone.frames) / frames if frames else 0.0
    )
    delays = [f.delay_slots for f in phone.frames if f.level > 0]
    mean_delay = sum(delays) / len(delays) if delays else 0.0
    return ClientReport(
        name=name,
        seat=state.seat,
        frames=frames,
        displayed=displayed,
        mean_viewed_quality=mean_quality,
        mean_delay_slots=mean_delay,
        fps=phone.fps(TARGET_FPS),
        end_reason=state.end_reason,
        server_summary=state.server_summary,
        resumes=state.resumes,
        redirects=redirects,
    )


async def _run_client(
    config: LoadGenConfig,
    index: int,
    injector: Optional[FaultInjector] = None,
) -> ClientReport:
    """Run one emulated phone against the server.

    The outer loop is the self-healing machinery: on a lost
    connection (never on a voluntary leave) the client backs off with
    capped exponential delay plus seeded jitter and rejoins with its
    resume token, continuing its session state in place.
    """
    name = f"{config.client_prefix}-{index}"
    latency_s = (
        config.slow_latency_s if index < config.slow_clients else config.latency_s
    )
    jitter_rng = np.random.default_rng((config.seed, 1009, index))
    reconnect_rng = np.random.default_rng((config.seed, 1013, index))
    leave_after = (
        config.churn_leave_after_slots if index < config.churn_clients else 0
    )
    injector = injector if injector is not None else FaultInjector()
    state: Optional[_ClientState] = None
    token = ""
    attempts = 0
    redirects = 0
    # The address being dialled.  A Redirect moves it to the assigned
    # shard; a lost connection falls back to the configured ("home")
    # endpoint — in a sharded cluster that is the coordinator, which
    # re-routes the client even if its shard just died.
    host, port = config.host, config.port
    while True:
        if attempts:
            await asyncio.sleep(
                config.reconnect.backoff_s(attempts, reconnect_rng)
            )
        can_heal = (
            config.reconnect.enabled and state is not None and bool(token)
        )
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except (ConnectionError, OSError):
            if not can_heal:
                raise
            host, port = config.host, config.port
            attempts += 1
            if attempts > config.reconnect.max_attempts:
                return _final_report(name, state, redirects)
            continue
        done = False
        rejected: Optional[ClientReport] = None
        follow: Optional[Redirect] = None
        codec = BinaryChannelCodec()
        try:
            await send_frame(
                writer,
                codec,
                JoinRequest(
                    client=name, version=PROTOCOL_VERSION, token=token
                ),
            )
            units = await read_units(reader, codec)
            greeting = units[0].message if units else None
            if isinstance(greeting, Redirect):
                follow = greeting
            elif isinstance(greeting, Reject):
                end_reason = (
                    "resume_failed"
                    if greeting.code == REJECT_RESUME
                    else "rejected"
                )
                rejected = ClientReport(
                    name=name,
                    seat=state.seat if state is not None else -1,
                    frames=0,
                    displayed=0,
                    mean_viewed_quality=0.0,
                    mean_delay_slots=0.0,
                    fps=0.0,
                    end_reason=end_reason,
                    reject_code=greeting.code,
                    reject_reason=greeting.reason,
                    redirects=redirects,
                )
            else:
                if not isinstance(greeting, Welcome):
                    raise TransportError(
                        f"expected welcome, redirect, or reject, got "
                        f"{type(greeting).__name__}"
                    )
                token = greeting.resume_token or token
                if state is None:
                    state = _ClientState(config, greeting)
                    await send_frame(
                        writer,
                        codec,
                        Ready(pose=pose_to_wire(state.trace[0].as_vector())),
                    )
                elif greeting.resumed:
                    state.resumes += 1
                    attempts = 0
                outcome = await _session_loop(
                    config, reader, writer, codec, state, latency_s,
                    jitter_rng, leave_after, injector,
                )
                if isinstance(outcome, Redirect):
                    follow = outcome
                else:
                    done = outcome
        except (TransportError, ConnectionError, OSError):
            if not (config.reconnect.enabled and state is not None and token):
                raise
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if rejected is not None:
            return rejected
        if done:
            return _final_report(name, state, redirects)
        if follow is not None:
            # Redirects are cluster plumbing, not failures: follow
            # immediately (no backoff, no attempt charged) whatever
            # the reconnect policy says, bounded by MAX_REDIRECTS.
            redirects += 1
            if redirects > MAX_REDIRECTS:
                if state is None:
                    raise TransportError(
                        f"{name}: redirected {redirects} times without "
                        "ever being admitted"
                    )
                state.end_reason = "redirect_loop"
                return _final_report(name, state, redirects)
            host, port = follow.host, follow.port
            continue
        # Connection lost mid-session: heal or give up.
        host, port = config.host, config.port
        if not (config.reconnect.enabled and token):
            return _final_report(name, state, redirects)
        attempts += 1
        if attempts > config.reconnect.max_attempts:
            return _final_report(name, state, redirects)


async def _session_loop(
    config: LoadGenConfig,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    codec: BinaryChannelCodec,
    state: _ClientState,
    latency_s: float,
    jitter_rng: np.random.Generator,
    leave_after_slots: int,
    injector: FaultInjector,
) -> Union[bool, Redirect]:
    """One connection's slot loop: plans in, reports out.

    Returns True when the run is over (END or voluntary leave), False
    when the connection should be treated as lost, or the
    :class:`Redirect` frame when the server moved this session to
    another shard mid-run (the caller reconnects there with its resume
    token).  Scripted client-side faults act here: ``crash_client``
    aborts without a report, ``corrupt_report`` mangles the report's
    body bytes (the server quarantines it), ``delay_report`` holds the
    report back.
    """
    pending: List[WireFrame] = []
    while True:
        if not pending:
            units = await read_units(reader, codec)
            if units is None:
                return False
            pending.extend(units)
        message = pending.pop(0).message
        if message is None:
            # A corrupt frame from the server: the slot is lost (the
            # server will charge a missed report), the stream is not.
            continue
        if isinstance(message, Redirect):
            return message
        if isinstance(message, EndOfRun):
            state.end_reason = message.reason
            state.server_summary = dict(message.summary)
            await send_frame(writer, codec, Bye(reason="complete"))
            return True
        if not isinstance(message, TilePlan):
            raise TransportError(
                f"expected plan or end frame, got {type(message).__name__}"
            )
        if injector.take(message.slot, state.seat, FAULT_CRASH_CLIENT):
            # Die mid-slot without a word: the plan is lost, no
            # report goes out, the socket just closes.
            return False
        if latency_s > 0 or config.jitter_s > 0:
            think_s = latency_s + float(
                jitter_rng.uniform(0.0, config.jitter_s)
            )
            if think_s > 0:
                await asyncio.sleep(think_s)
        report = _evaluate_plan(
            message, state.trace, state.coverage, state.phone
        )
        delay = injector.take(message.slot, state.seat, FAULT_DELAY_REPORT)
        if delay is not None:
            await asyncio.sleep(delay.duration_s)
        corrupt = injector.take(
            message.slot, state.seat, FAULT_CORRUPT_REPORT
        )
        if corrupt is not None:
            writer.write(corrupt_frame_bytes(codec.encode(report)))
            await writer.drain()
        else:
            await send_frame(writer, codec, report)
        if leave_after_slots and message.slot + 1 >= leave_after_slots:
            state.end_reason = "churned"
            await send_frame(writer, codec, Bye(reason="churn"))
            return True


def _evaluate_plan(
    plan: TilePlan,
    trace: Sequence[Pose],
    coverage: CoverageEvaluator,
    phone: Client,
) -> SlotReport:
    """Run one slot through the client display pipeline.

    Mirrors the experiment loop exactly: coverage is judged against
    the trace's next-slot pose, the transmission span includes the
    server's startup delay only when tiles were actually sent, and
    the reported delay is clamped to the bounded worst case.
    """
    display_slot = min(plan.slot + 1, len(trace) - 1)
    covered = False
    if plan.level > 0 and plan.predicted_pose is not None:
        covered = bool(
            coverage.evaluate(
                Pose.from_vector(plan.predicted_pose), trace[display_slot]
            ).covered
        )
    transmission_s = (
        plan.duration_s + plan.startup_delay_s
        if plan.tile_bits
        else plan.duration_s
    )
    outcome = phone.receive_frame(
        list(plan.video_ids),
        list(plan.tile_bits),
        list(plan.lost_positions),
        transmission_s,
        covered,
        plan.level,
    )
    delay_slots = (
        min(outcome.delay_slots, MAX_DELAY_SLOTS)
        if math.isfinite(outcome.delay_slots)
        else MAX_DELAY_SLOTS
    )
    lost = set(plan.lost_positions)
    delivered = tuple(
        vid for position, vid in enumerate(plan.video_ids) if position not in lost
    )
    pose_slot = min(plan.slot, len(trace) - 1)
    return SlotReport(
        slot=plan.slot,
        delivered_ids=delivered,
        released_ids=tuple(phone.last_released),
        indicator=outcome.indicator,
        delay_slots=delay_slots,
        viewed_quality=outcome.viewed_quality,
        pose=pose_to_wire(trace[pose_slot].as_vector()),
    )


async def run_fleet(config: LoadGenConfig) -> FleetReport:
    """Run every client concurrently and gather their reports.

    All clients share one :class:`~repro.faults.injection.FaultInjector`
    holding the schedule's client-side events (seats are disjoint, so
    sharing just means one timeline to assert on).
    """
    if config.port == 0:
        raise ConfigurationError("fleet needs a concrete server port")
    injector = FaultInjector(
        config.faults.restricted_to(CLIENT_KINDS)
        if config.faults is not None
        else None
    )
    tasks = [
        asyncio.ensure_future(_run_client(config, index, injector))
        for index in range(config.num_clients)
    ]
    reports = await asyncio.gather(*tasks)
    return FleetReport(clients=tuple(reports))


async def run_serve_and_fleet(
    serve_config: ServeConfig, fleet_config: LoadGenConfig
) -> Tuple[ServeResult, FleetReport]:
    """Run a server and its fleet in-process (tests and benches).

    Starts the server on its configured endpoint, points the fleet at
    the bound port, and returns both end-of-run views.
    """
    server = VrServeServer(serve_config)
    await server.start()
    server_task = asyncio.ensure_future(server.run())
    try:
        fleet = await run_fleet(replace(fleet_config, port=server.port))
        result = await server_task
    finally:
        if not server_task.done():
            server_task.cancel()
            await asyncio.gather(server_task, return_exceptions=True)
    return result, fleet

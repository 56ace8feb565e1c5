"""The emulated phone: fleet config, session state and display pipeline.

Each fleet client emulates one commodity phone end-to-end: it joins
the server, replays a seeded :mod:`repro.traces` motion trace, runs
the experiment's own phone step (:func:`~repro.system.client.play_frame`
over a :class:`~repro.system.client.Client` with a
:class:`~repro.system.client.DecoderPool`), which judges FoV coverage
against its *own* next-slot pose, and reports delivery/release ACKs,
the display indicator, and the measured delay back each slot.  This
module holds that phone model and the fleet's config and report
types; the driver that runs a fleet of them over sockets is
:mod:`repro.serve.mux`.

With ``seed`` equal to the server's experiment seed, client ``i``'s
trace is drawn from ``default_rng((seed, 0, seat, 17))`` — the same
stream :meth:`~repro.system.experiment.SystemExperiment.run_repeat`
uses for user ``seat`` — which is what makes a full-house lockstep
loopback run reproduce the experiment's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.content.projection import FieldOfView
from repro.content.tiles import GridWorld, TileGrid
from repro.errors import ConfigurationError, require_ints, require_numbers
from repro.faults.schedule import FaultSchedule
from repro.prediction.fov import CoverageEvaluator
from repro.prediction.pose import Pose
from repro.serve.protocol import SlotReport, TilePlan, Welcome, pose_to_wire
from repro.system.client import Client, DecoderPool, play_frame
from repro.traces.motion import MotionConfig, MotionTraceGenerator
from repro.units import TARGET_FPS

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
        require_ints(self, ("max_attempts",))
        require_numbers(self, ("base_s", "multiplier", "max_s", "jitter_s"))
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
        require_ints(self, (
            "port", "num_clients", "seed", "slow_clients", "churn_clients",
            "churn_leave_after_slots",
        ))
        require_numbers(self, ("latency_s", "jitter_s", "slow_latency_s"))
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


def _evaluate_plan(
    plan: TilePlan,
    trace: Sequence[Pose],
    coverage: CoverageEvaluator,
    phone: Client,
) -> SlotReport:
    """Run one slot through the phone step and wrap it as a report."""
    played = play_frame(
        phone,
        coverage,
        trace,
        plan.slot,
        plan.level,
        plan.predicted_pose,
        plan.video_ids,
        plan.tile_bits,
        plan.lost_positions,
        plan.duration_s,
        plan.startup_delay_s,
    )
    pose_slot = min(plan.slot, len(trace) - 1)
    return SlotReport(
        slot=plan.slot,
        delivered_ids=played.delivered_ids,
        released_ids=tuple(phone.last_released),
        indicator=played.outcome.indicator,
        delay_slots=played.delay_slots,
        viewed_quality=played.outcome.viewed_quality,
        pose=pose_to_wire(trace[pose_slot].as_vector()),
    )

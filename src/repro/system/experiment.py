"""The real-system experiment runner behind Figs. 7 and 8.

Reproduces the two Section VI setups:

* **setup 1** — 8 users behind a single router, server budget 400 Mbps;
* **setup 2** — 15 users split across two bridged routers that share
  an interference field, server budget 800 Mbps.

Users replay motion traces and are throttled to one of the five TC
guidelines {40, 45, 50, 55, 60} Mbps; everything the scheduler sees is
an estimate.  Each run reports the per-user average QoE, viewed
quality, delivery delay, quality variance, and realized FPS — the
bars of Figs. 7-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING, Collection, Dict, FrozenSet, List, Mapping, Optional,
    Sequence, Set, Tuple,
)

import numpy as np

from repro.content.database import TileDatabase
from repro.content.gop import GopModel
from repro.content.projection import FieldOfView
from repro.content.rate import RateModel
from repro.content.tiles import GridWorld, TileGrid, VideoId
from repro.core.allocation import QualityAllocator
from repro.core.qoe import QoEWeights
from repro.errors import ConfigurationError
from repro.obs.config import Obs
from repro.prediction.fov import CoverageEvaluator
from repro.system.netem import (
    FadingProcess,
    InterferenceField,
    Router,
    ThrottledLink,
)
from repro.system.server import EdgeServer, SlotPlan
from repro.system.telemetry import Telemetry
from repro.system.transport import RtpChannel, TransmissionResult
from repro.units import (
    SETUP1_SERVER_MBPS,
    SETUP2_SERVER_MBPS,
    SLOT_DURATION_S,
    TARGET_FPS,
    THROTTLE_GUIDELINES_MBPS,
)

if TYPE_CHECKING:
    from repro.faults.schedule import FaultSchedule
    from repro.simulation.metrics import EpisodeResult, MultiEpisodeResults


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one real-system setup."""

    num_users: int = 8
    num_routers: int = 1
    router_capacity_mbps: float = 400.0
    server_budget_mbps: float = SETUP1_SERVER_MBPS
    throttle_guidelines: Sequence[float] = THROTTLE_GUIDELINES_MBPS
    weights: QoEWeights = field(default_factory=QoEWeights.system_defaults)
    duration_slots: int = 1800
    slot_s: float = SLOT_DURATION_S
    margin_deg: float = 15.0
    cell_tolerance: int = 1
    world_size_m: float = 8.0
    interference_onset: float = 0.0005
    interference_severity: Sequence[float] = (0.25, 0.6)
    link_fading_sigma: float = 0.05
    router_fading_sigma: float = 0.02
    rtp_base_loss: float = 1e-4
    rtp_congestion_loss: float = 0.25
    client_cache_tiles: int = 600
    decode_rate_mbps: float = 400.0
    num_decoders: int = 5
    initial_cap_mbps: float = 60.0
    content_refresh_slots: int = 1
    level_ratio: float = 1.25
    safety_factor: float = 0.95
    contention_loss_per_flow: float = 0.005
    #: Extra slots of pose-upload staleness (TCP queuing/scheduling):
    #: with k > 0 the server plans slot t from poses up to t - 1 - k,
    #: lengthening the effective prediction horizon.
    pose_upload_latency_slots: int = 0
    #: When True the scheduler adds one constraint per router (budget
    #: = router capacity x planning_efficiency) to the per-slot
    #: problem, instead of relying on the single aggregate B(t).
    router_aware: bool = False
    router_planning_efficiency: float = 0.9
    #: GoP burstiness: 0 = the paper's constant-per-slot abstraction;
    #: e.g. 30 = one I frame (several times a P frame's size) every
    #: half second per user stream, staggered across users.
    gop_length: int = 0
    gop_i_to_p_ratio: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "num_users", "num_routers", "duration_slots", "cell_tolerance",
            "client_cache_tiles", "num_decoders", "content_refresh_slots",
            "pose_upload_latency_slots", "gop_length",
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"{name} must be an int, got {value!r}"
                )
        for name in (
            "router_capacity_mbps", "server_budget_mbps", "slot_s",
            "margin_deg", "world_size_m", "interference_onset",
            "link_fading_sigma", "router_fading_sigma", "rtp_base_loss",
            "rtp_congestion_loss", "decode_rate_mbps", "initial_cap_mbps",
            "level_ratio", "safety_factor", "contention_loss_per_flow",
            "router_planning_efficiency", "gop_i_to_p_ratio",
        ):
            # NaN passes every range check downstream and fails deep
            # inside a run (or never), so refuse it here.
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or math.isnan(value)
            ):
                raise ConfigurationError(
                    f"{name} must be a number, got {value!r}"
                )
        if self.num_users < 1:
            raise ConfigurationError(f"num_users must be >= 1, got {self.num_users}")
        if self.pose_upload_latency_slots < 0:
            raise ConfigurationError(
                "pose_upload_latency_slots must be >= 0, got "
                f"{self.pose_upload_latency_slots}"
            )
        if self.num_routers < 1:
            raise ConfigurationError(
                f"num_routers must be >= 1, got {self.num_routers}"
            )
        if self.duration_slots < 3:
            raise ConfigurationError(
                "the t/t+1/t+2 pipeline needs at least 3 slots, got "
                f"{self.duration_slots}"
            )
        if not self.throttle_guidelines:
            raise ConfigurationError("need at least one throttle guideline")


def setup1_config(duration_slots: int = 1800, seed: int = 0) -> ExperimentConfig:
    """Section VI setup 1: 8 users, one 802.11ac router, 400 Mbps."""
    return ExperimentConfig(
        num_users=8,
        num_routers=1,
        router_capacity_mbps=400.0,
        server_budget_mbps=SETUP1_SERVER_MBPS,
        interference_onset=0.001,
        link_fading_sigma=0.06,
        router_fading_sigma=0.03,
        duration_slots=duration_slots,
        seed=seed,
    )


def setup2_config(duration_slots: int = 1800, seed: int = 0) -> ExperimentConfig:
    """Section VI setup 2: 15 users, two bridged routers, 800 Mbps.

    The two routers share one interference field with a much higher
    onset rate — "the variance of the bandwidth capacity is even
    larger with two routers working together due to the possible
    wireless interference".
    """
    return ExperimentConfig(
        num_users=15,
        num_routers=2,
        router_capacity_mbps=400.0,
        server_budget_mbps=SETUP2_SERVER_MBPS,
        interference_onset=0.012,
        interference_severity=(0.15, 0.45),
        link_fading_sigma=0.15,
        router_fading_sigma=0.08,
        duration_slots=duration_slots,
        seed=seed,
    )


class DataPlane:
    """The emulated network between the edge server and its seats.

    TC throttles, router fair-sharing, fading, interference and RTP
    loss for one run of an :class:`ExperimentConfig`.
    :meth:`SystemExperiment.run_repeat` and the live slot loop
    (:class:`~repro.serve.slotloop.SlotLoop`) both run a slot's
    downlink through :meth:`deliver`.  Guidelines come from
    ``default_rng((seed, repeat, 11))``; all fading, interference and
    RTP loss from ``default_rng((seed, repeat, 13))``, consumed in a
    fixed order — routers step, links step, then one RTP transmission
    per seat in seat order (seats with no payload consume no
    randomness).  Seats are assigned to routers round-robin.
    """

    def __init__(self, config: ExperimentConfig, repeat: int = 0) -> None:
        self.config = config
        rng = np.random.default_rng((config.seed, repeat, 11))
        self.guidelines_mbps: List[float] = [
            float(rng.choice(list(config.throttle_guidelines)))
            for _ in range(config.num_users)
        ]
        self.links = [
            ThrottledLink(g, FadingProcess(sigma=config.link_fading_sigma))
            for g in self.guidelines_mbps
        ]
        self.interference = InterferenceField(
            onset_probability=config.interference_onset,
            severity_range=tuple(config.interference_severity),
        )
        self.routers = [
            Router(
                config.router_capacity_mbps,
                interference=self.interference,
                fading=FadingProcess(sigma=config.router_fading_sigma),
                contention_loss_per_flow=config.contention_loss_per_flow,
            )
            for _ in range(config.num_routers)
        ]
        self.rtp = RtpChannel(
            base_loss=config.rtp_base_loss,
            congestion_loss=config.rtp_congestion_loss,
        )
        self.net_rng = np.random.default_rng((config.seed, repeat, 13))

    def router_of(self, seat: int) -> int:
        """Round-robin seat-to-router assignment."""
        return seat % self.config.num_routers

    def step(self) -> None:
        """Advance fading and interference one slot."""
        for router in self.routers:
            router.step(self.net_rng)
        for link in self.links:
            link.step(self.net_rng)

    def achieved(self, demands_mbps: Sequence[float]) -> List[float]:
        """Fair-share achieved rate per seat for this slot's demands.

        A flow transmits at its full bottleneck rate (TC throttle or
        fair share of the router), not paced to its payload: the
        demand only sets how many bits must cross this slot.
        """
        num_users = self.config.num_users
        if len(demands_mbps) != num_users:
            raise ConfigurationError(
                f"expected {num_users} demands, got {len(demands_mbps)}"
            )
        caps = [link.effective_mbps for link in self.links]
        achieved = [0.0] * num_users
        for r, router in enumerate(self.routers):
            members = [u for u in range(num_users) if self.router_of(u) == r]
            wants = [
                caps[u] if demands_mbps[u] > 1e-9 else 0.0 for u in members
            ]
            rates = router.transmit(wants, [caps[u] for u in members])
            for u, rate in zip(members, rates):
                achieved[u] = rate
        return achieved

    def transmit(
        self,
        tile_bits: Sequence[float],
        demand_mbps: float,
        achieved_mbps: float,
    ) -> TransmissionResult:
        """Emulate one seat's RTP tile delivery for this slot."""
        return self.rtp.transmit(
            list(tile_bits), demand_mbps, achieved_mbps, self.net_rng
        )

    def deliver(
        self, plan: SlotPlan, starved: Collection[int] = ()
    ) -> Tuple[List[float], List[TransmissionResult]]:
        """Run one slot's downlink for ``plan``.

        Steps the network, fair-shares the routers, then transmits
        every seat's tiles in seat order.  A ``starved`` seat (an
        injected outage) gets achieved rate 0 after the router draws,
        so the RNG stream keeps its shape, and before its RTP step,
        whose starved path draws nothing; seats past the last one are
        ignored.  Returns the achieved rates and the per-seat results.
        """
        self.step()
        achieved = self.achieved(plan.demands_mbps)
        for seat in starved:
            if seat < len(achieved):
                achieved[seat] = 0.0
        results = [
            self.transmit(user.missing_bits, user.demand_mbps, achieved[seat])
            for seat, user in enumerate(plan.users)
        ]
        return achieved, results


class SystemExperiment:
    """Runs one configuration for any allocator, several repeats."""

    def __init__(self, config: ExperimentConfig = ExperimentConfig()) -> None:
        self.config = config
        self.world = GridWorld(
            0.0, config.world_size_m, 0.0, config.world_size_m, cell_size=0.05
        )
        self.grid = TileGrid()
        self.rate_model = RateModel(
            level_ratio=config.level_ratio, seed=config.seed
        )
        self.database = TileDatabase(self.world, self.grid, self.rate_model)
        self.coverage = CoverageEvaluator(
            self.world,
            self.grid,
            FieldOfView(),
            margin_deg=config.margin_deg,
            cell_tolerance=config.cell_tolerance,
        )

    def edge_server(
        self, allocator: QualityAllocator, data_plane: DataPlane
    ) -> EdgeServer:
        """The edge server for this setup, planning with ``allocator``.

        Resets the allocator; a router-aware setup gets one budget per
        router of ``data_plane`` (capacity x planning efficiency).
        """
        cfg = self.config
        allocator.reset()
        router_of = None
        router_budgets = None
        if cfg.router_aware:
            router_of = [data_plane.router_of(u) for u in range(cfg.num_users)]
            router_budgets = [
                cfg.router_capacity_mbps * cfg.router_planning_efficiency
            ] * cfg.num_routers
        return EdgeServer(
            cfg.num_users,
            allocator,
            cfg.weights,
            self.database,
            self.coverage,
            cfg.server_budget_mbps,
            initial_cap_mbps=cfg.initial_cap_mbps,
            content_refresh_slots=cfg.content_refresh_slots,
            safety_factor=cfg.safety_factor,
            router_of=router_of,
            router_budgets_mbps=router_budgets,
            gop=GopModel(cfg.gop_length, cfg.gop_i_to_p_ratio),
            slot_s=cfg.slot_s,
        )

    def run_repeat(
        self,
        allocator: QualityAllocator,
        repeat: int = 0,
        telemetry: Optional["Telemetry"] = None,
        obs: Optional[Obs] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> EpisodeResult:
        """One full run (one of the paper's five repetitions).

        Each slot is the live server's: :meth:`EdgeServer.plan_slot
        <repro.system.server.EdgeServer.plan_slot>`,
        :meth:`DataPlane.deliver`, one
        :func:`~repro.system.client.play_frame` per phone, and the
        fold, :meth:`EdgeServer.complete_slot
        <repro.system.server.EdgeServer.complete_slot>`.  The uplink
        (acks and pose uploads) is carried in memory.

        Pass a :class:`~repro.system.telemetry.Telemetry` collector to
        capture the per-slot planner view and outcomes, and/or an
        :class:`~repro.obs.config.Obs` bundle to mirror progress into
        its registry and stream per-slot spans (on the run's *virtual*
        slot clock) through its tracer and flight recorder.  Both are
        pure observers: seeded results are bit-identical with or
        without them.

        ``faults`` maps the serving layer's fault schedule onto the
        emulated testbed: connection-level kinds (disconnect, stalls,
        truncation, client crash) starve the user's downlink for the
        slot (achieved rate 0) and lose its uplink (no acks, no pose);
        ``corrupt_report`` loses the uplink only; ``delay_report``
        defers just the pose upload.  ``None`` (the default) leaves
        the run bit-identical to a build without the fault layer.
        """
        # The phone model, the walker, the fault kinds and the figure
        # metrics are the harness's own: a serving process builds this
        # class but never loads them.
        from repro.faults.schedule import FAULT_CORRUPT_REPORT, FAULT_DELAY_REPORT
        from repro.simulation.metrics import EpisodeResult, summarize_ledger
        from repro.system.client import Client, DecoderPool, play_frame
        from repro.traces.motion import MotionConfig, MotionTraceGenerator

        cfg = self.config
        # Pre-index the schedule by slot so the hot loop pays one dict
        # lookup per slot, not a scan of the event list.
        outage_seats: Dict[int, Set[int]] = {}
        uplink_drop_seats: Dict[int, Set[int]] = {}
        pose_drop_seats: Dict[int, Set[int]] = {}
        for event in faults.events if faults is not None else ():
            if event.kind == FAULT_CORRUPT_REPORT:
                seats = uplink_drop_seats
            elif event.kind == FAULT_DELAY_REPORT:
                seats = pose_drop_seats
            else:
                seats = outage_seats
            seats.setdefault(event.slot, set()).add(event.seat)
        _EMPTY: FrozenSet[int] = frozenset()
        slots_counter = (
            obs.registry.counter(
                "repro_experiment_slots_total",
                "Transmission slots emulated by SystemExperiment",
            )
            if obs is not None
            else None
        )
        if obs is not None:
            obs.registry.counter(
                "repro_experiment_repeats_total",
                "Experiment repeats started",
            ).inc()

        motion = MotionTraceGenerator(self.world, MotionConfig(), cfg.slot_s)
        poses = [
            motion.generate(
                cfg.duration_slots, np.random.default_rng((cfg.seed, repeat, u, 17))
            )
            for u in range(cfg.num_users)
        ]
        data_plane = DataPlane(cfg, repeat)
        decoder_pool = DecoderPool(cfg.num_decoders, cfg.decode_rate_mbps)
        clients = [
            Client(u, cfg.client_cache_tiles, decoder_pool, cfg.slot_s)
            for u in range(cfg.num_users)
        ]
        server = self.edge_server(allocator, data_plane)
        if obs is not None:
            server.scheduler.attach_registry(obs.registry)

        # Connection setup: each client uploads its initial pose.
        for u in range(cfg.num_users):
            server.observe_pose(u, poses[u][0])

        # Transmission slots t = 0..T-2; the frame sent in slot t is
        # displayed against the true pose of slot t+1.
        for t in range(cfg.duration_slots - 1):
            plan = server.plan_slot()
            down = outage_seats.get(t, _EMPTY)
            achieved, results = data_plane.deliver(plan, starved=down)
            played = [
                play_frame(
                    clients[u],
                    self.coverage,
                    poses[u],
                    t,
                    user_plan.level,
                    user_plan.predicted_pose,
                    [VideoId.encode(k) for k in user_plan.missing_keys],
                    user_plan.missing_bits,
                    result.lost_tile_indices,
                    result.duration_s,
                    user_plan.startup_delay_s,
                )
                for u, (user_plan, result) in enumerate(zip(plan.users, results))
            ]
            outcomes = [frame.outcome for frame in played]
            indicators = [outcome.indicator for outcome in outcomes]
            # The uplink: a lost one carries no acks and no pose; the
            # pose upload lands at the end of the slot (TCP), and
            # extra staleness defers which pose the server learns.
            uplink_lost = uplink_drop_seats.get(t, _EMPTY) | down
            pose_lost = pose_drop_seats.get(t, _EMPTY) | uplink_lost
            stale_t = t - cfg.pose_upload_latency_slots
            server.complete_slot(
                plan,
                indicators,
                [frame.delay_slots for frame in played],
                achieved,
                [
                    () if u in uplink_lost else frame.delivered_ids
                    for u, frame in enumerate(played)
                ],
                [
                    () if u in uplink_lost else client.last_released
                    for u, client in enumerate(clients)
                ],
                poses=[
                    poses[u][stale_t]
                    if stale_t >= 0 and u not in pose_lost
                    else None
                    for u in range(cfg.num_users)
                ],
                telemetry=telemetry,
                displayed=[outcome.displayed for outcome in outcomes],
                covered=[outcome.covered for outcome in outcomes],
            )
            if slots_counter is not None:
                slots_counter.inc()
            if obs is not None and obs.active:
                # The experiment has no wall clock: spans carry the
                # run's virtual slot boundaries instead.
                builder = obs.tracer.slot(t, t * cfg.slot_s)
                builder.stage("allocate", t * cfg.slot_s, t * cfg.slot_s)
                for u, user_plan in enumerate(plan.users):
                    if user_plan.level > 0:
                        builder.user(
                            u,
                            level=user_plan.level,
                            demand_mbps=user_plan.demand_mbps,
                            displayed=bool(indicators[u]),
                        )
                span = builder.finish(
                    (t + 1) * cfg.slot_s, deadline_hit=True
                )
                obs.flight.record(span)
                obs.tracer.emit(span)

        return EpisodeResult(
            users=[
                summarize_ledger(
                    server.scheduler.ledgers[u],
                    cfg.weights,
                    fps=clients[u].fps(TARGET_FPS),
                )
                for u in range(cfg.num_users)
            ],
            episode=repeat,
        )

    def run(
        self, allocator: QualityAllocator, repeats: int = 5
    ) -> MultiEpisodeResults:
        """Average over repeats, as the paper does (five repetitions)."""
        from repro.simulation.metrics import MultiEpisodeResults

        if repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
        results = MultiEpisodeResults(algorithm=allocator.name)
        for repeat in range(repeats):
            results.add(self.run_repeat(allocator, repeat))
        return results

    def compare(
        self, allocators: Mapping[str, QualityAllocator], repeats: int = 5
    ) -> Dict[str, MultiEpisodeResults]:
        """Run every allocator over the same repeats."""
        if not allocators:
            raise ConfigurationError("compare needs at least one allocator")
        return {
            name: self.run(allocator, repeats)
            for name, allocator in allocators.items()
        }


def scaled_config(config: ExperimentConfig, duration_slots: int) -> ExperimentConfig:
    """Copy a config with a different run length (for quick benches)."""
    return replace(config, duration_slots=duration_slots)

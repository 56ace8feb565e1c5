"""The edge server: estimation, tile selection, dedup, allocation.

The server side of Fig. 4: it receives poses over TCP, predicts each
user's display-time pose, selects the tiles covering the predicted
FoV plus margin, runs the pluggable quality allocator against
*estimated* constraints (EMA throughput, polynomial-regression
delay), and transmits only the tiles the user does not already hold
(the repetitive-tile dedup of Section V, mirrored from client ACKs).

Per-seat state that the slot sweeps read lives in arrays: every
seat's pose window in one
:class:`~repro.kernel.predict.BatchMotionPredictor`, and every seat's
(rate, delay) window in one
:class:`~repro.prediction.delay.BatchDelayPredictor`, which prices the
whole slot menu — each seat's delay at each level's rate — in one
Horner sweep.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.content.database import ServerTileCache, TileDatabase
from repro.content.gop import GopModel
from repro.content.rate import QualityRateCurve
from repro.content.tiles import TileKey, VideoId
from repro.core.allocation import QualityAllocator
from repro.core.qoe import QoEWeights
from repro.core.scheduler import CollaborativeVrScheduler
from repro.errors import ConfigurationError
from repro.kernel.predict import BatchMotionPredictor
from repro.prediction.delay import BatchDelayPredictor
from repro.prediction.fov import CoverageEvaluator
from repro.prediction.pose import PoseRow, is_finite_vector, pose_row
from repro.system.telemetry import SlotUserRecord, Telemetry
from repro.units import SLOT_DURATION_S

_EPS = 1e-9


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_non_negative(value: object) -> bool:
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and 0 <= value <= sys.float_info.max  # False for NaN
    )


def _seat_int(state: Mapping[str, object], key: str) -> int:
    value = state.get(key)
    if not _is_int(value):
        raise ConfigurationError(
            f"seat state {key!r} must be an int, got {value!r}"
        )
    return value


@dataclass
class UserPlan:
    """One user's share of a slot plan."""

    level: int
    #: The display-time pose the tiles were selected for; ``None`` for
    #: an empty seat.
    predicted_pose: Optional[PoseRow]
    cell_id: int
    tile_indices: Tuple[int, ...]
    missing_keys: List[TileKey]
    missing_bits: List[float]
    demand_mbps: float
    nominal_rate_mbps: float
    #: Extra transmission start latency this slot (server tile-cache
    #: miss: the panorama had to be fetched from disk first).
    startup_delay_s: float = 0.0


@dataclass
class SlotPlan:
    """The server's decisions for one transmission slot."""

    slot: int
    users: List[UserPlan]

    @property
    def levels(self) -> List[int]:
        return [u.level for u in self.users]

    @property
    def demands_mbps(self) -> List[float]:
        return [u.demand_mbps for u in self.users]


class EdgeServer:
    """Slot-by-slot planner mirroring the paper's server application.

    Parameters
    ----------
    num_users:
        Number of connected phones.
    allocator:
        Quality allocator plug-in (Algorithm 1 or a baseline).
    weights:
        QoE weights (Section VI uses alpha=0.1, beta=0.5).
    database:
        Offline tile database (sizes, video ids).
    coverage:
        Tile selection / coverage geometry.
    server_budget_mbps:
        The wired-side budget ``B`` (400 or 800 Mbps in the paper).
    initial_cap_mbps:
        Optimistic initial per-user capacity estimate (the server
        does not know the TC guidelines).
    prediction_horizon:
        Slots between the last received pose and display time; the
        t/t+1/t+2 pipeline of Section V implies 2.
    cap_probe_gain:
        Multiplicative upward drift applied to a user's capacity
        estimate in unsaturated slots — without it an EMA of achieved
        goodput can never discover that a link got better.
    content_refresh_slots:
        How many slots a delivered tile stays valid.  ``1`` models a
        live scene (the VR classroom with an active teacher) where
        every slot needs fresh content at rate ``f^R(q)`` — exactly
        the per-slot rate model of Section II.  Larger values model
        partially static content; ``0`` means a fully static scene,
        where the repetitive-tile dedup of Section V saves almost all
        bandwidth in steady state.
    """

    def __init__(
        self,
        num_users: int,
        allocator: QualityAllocator,
        weights: QoEWeights,
        database: TileDatabase,
        coverage: CoverageEvaluator,
        server_budget_mbps: float,
        initial_cap_mbps: float = 60.0,
        prediction_horizon: int = 2,
        predictor_window: int = 10,
        ema_alpha: float = 0.25,
        safety_factor: float = 0.85,
        cap_probe_gain: float = 1.01,
        max_cap_mbps: float = 150.0,
        content_refresh_slots: int = 1,
        router_of: Optional[Sequence[int]] = None,
        router_budgets_mbps: Optional[Sequence[float]] = None,
        gop: Optional[GopModel] = None,
        cache_radius_cells: int = 10,
        cache_miss_penalty_s: float = 0.004,
        slot_s: float = SLOT_DURATION_S,
    ) -> None:
        if num_users < 1:
            raise ConfigurationError(f"num_users must be >= 1, got {num_users}")
        if server_budget_mbps <= 0:
            raise ConfigurationError(
                f"server budget must be positive, got {server_budget_mbps}"
            )
        if cap_probe_gain < 1.0:
            raise ConfigurationError(
                f"cap_probe_gain must be >= 1, got {cap_probe_gain}"
            )
        if content_refresh_slots < 0:
            raise ConfigurationError(
                f"content_refresh_slots must be >= 0, got {content_refresh_slots}"
            )
        self.num_users = num_users
        self.database = database
        self.coverage = coverage
        self.server_budget_mbps = server_budget_mbps
        self.slot_s = slot_s
        self.cap_probe_gain = cap_probe_gain
        self.max_cap_mbps = max_cap_mbps
        self.scheduler = CollaborativeVrScheduler(
            num_users, allocator, weights, allow_skip=True
        )
        self._initial_cap_mbps = float(initial_cap_mbps)
        # Every seat's pose window, predicted in one sweep per slot.
        self._motion = BatchMotionPredictor(
            num_users, window=predictor_window, horizon=prediction_horizon
        )
        # Plain float estimates with EMA updates on saturated samples;
        # see observe-throughput logic in complete_slot.
        self._cap_estimates = [float(initial_cap_mbps)] * num_users
        self._ema_alpha = ema_alpha
        self._safety = safety_factor
        # Every seat's (rate, delay) window, priced in one sweep per slot.
        self._delay_model = BatchDelayPredictor(num_users)
        self._delivered: List[Set[int]] = [set() for _ in range(num_users)]
        self.content_refresh_slots = content_refresh_slots
        if (router_of is None) != (router_budgets_mbps is None):
            raise ConfigurationError(
                "router_of and router_budgets_mbps must be provided together"
            )
        self.router_of = list(router_of) if router_of is not None else None
        self.router_budgets_mbps = (
            list(router_budgets_mbps) if router_budgets_mbps is not None else None
        )
        self.gop = gop if gop is not None else GopModel()
        if cache_miss_penalty_s < 0:
            raise ConfigurationError(
                f"cache miss penalty must be >= 0, got {cache_miss_penalty_s}"
            )
        # Section V: the server holds an in-memory window of tiles
        # around each user's position; a miss means fetching from the
        # (171 GB) on-disk database before transmission can start.
        self._cache_radius_cells = cache_radius_cells
        self._tile_caches = [
            ServerTileCache(database, radius_cells=cache_radius_cells)
            for _ in range(num_users)
        ]
        self.cache_miss_penalty_s = cache_miss_penalty_s
        # Each seat's last (cell, rate curve): a seat stays in one cell
        # for many slots, so the curve is rebuilt only when it moves.
        # One entry per seat, not per cell visited, keeps memory flat;
        # the curve depends on the cell alone, so it survives resets.
        self._seat_curves: List[Optional[Tuple[int, QualityRateCurve]]] = [
            None
        ] * num_users
        self._epoch = 0
        self._slot = 0

    # ------------------------------------------------------------------
    # Uplink: poses and ACKs
    # ------------------------------------------------------------------
    def observe_pose(self, user: int, vector: Sequence[float]) -> None:
        """Fold a pose upload (TCP) into the user's motion history.

        The row is stored as given: normalise a row from outside with
        :func:`~repro.prediction.pose.pose_row` first.
        """
        self._motion.observe_user(user, vector)

    def acknowledge_release(self, user: int, video_ids: Sequence[int]) -> None:
        """Client evicted tiles: forget them so they can be resent."""
        self._delivered[user].difference_update(video_ids)

    def cache_hit_ratio(self, user: int) -> float:
        """Fraction of this user's slots served from the memory window."""
        return self._tile_caches[user].hit_ratio()

    def reset_user(self, user: int) -> None:
        """Clear one seat's per-session state (serving-layer churn).

        The serving layer maps live connections onto fixed scheduler
        seats; when a session leaves and its seat is reassigned, the
        new occupant must start from a clean motion history, delay
        model, capacity estimate, dedup ledger, and tile window.
        """
        if not 0 <= user < self.num_users:
            raise ConfigurationError(
                f"user index must be in [0, {self.num_users}), got {user}"
            )
        self._motion.reset_user(user)
        self._delay_model.reset_user(user)
        self._delivered[user].clear()
        self._cap_estimates[user] = self._initial_cap_mbps
        self._tile_caches[user] = ServerTileCache(
            self.database, radius_cells=self._cache_radius_cells
        )
        self.scheduler.reset_user(user)

    # ------------------------------------------------------------------
    # Seat snapshot / restore (session migration)
    # ------------------------------------------------------------------
    def export_seat(self, user: int) -> Dict[str, object]:
        """One seat's cross-slot state as a JSON-friendly dict.

        Everything a migrating session must carry to a new shard so
        planning continues exactly where it left off: the motion
        predictor's pose window, the delay model's sample window, the
        EMA capacity estimate, the dedup ledger, the tile-cache centre
        and hit counters, and the scheduler's running statistics.
        The shard-global slot/epoch counters are deliberately *not*
        included — they belong to the target shard's own timeline.
        """
        if not 0 <= user < self.num_users:
            raise ConfigurationError(
                f"user index must be in [0, {self.num_users}), got {user}"
            )
        cache = self._tile_caches[user]
        return {
            "pose_window": self._motion.export_user(user),
            "delay_samples": self._delay_model.export_user(user),
            "cap_estimate_mbps": float(self._cap_estimates[user]),
            "delivered_ids": sorted(self._delivered[user]),
            "cache_center_cell": cache.center_cell,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "scheduler": self.scheduler.export_user(user),
        }

    def import_seat(self, user: int, state: Mapping[str, object]) -> None:
        """Reinstate a seat from :meth:`export_seat` output.

        The seat is reset first, so a failed validation cannot leave
        it half-restored with another session's leftovers.
        """
        if not 0 <= user < self.num_users:
            raise ConfigurationError(
                f"user index must be in [0, {self.num_users}), got {user}"
            )
        pose_window = state.get("pose_window")
        delay_samples = state.get("delay_samples")
        delivered_ids = state.get("delivered_ids")
        sched_state = state.get("scheduler")
        if not isinstance(pose_window, (list, tuple)):
            raise ConfigurationError("seat state 'pose_window' must be a list")
        if not isinstance(delay_samples, (list, tuple)):
            raise ConfigurationError("seat state 'delay_samples' must be a list")
        if not isinstance(delivered_ids, (list, tuple)):
            raise ConfigurationError("seat state 'delivered_ids' must be a list")
        if not isinstance(sched_state, Mapping):
            raise ConfigurationError("seat state 'scheduler' must be an object")
        # The blob is JSON, which admits NaN and Infinity: a non-finite
        # pose, delay sample or cap would poison every later plan_slot
        # on this shard, and a malformed entry would fail half-way
        # through the restore, so refuse them here.
        for vector in pose_window:
            if not is_finite_vector(vector):
                raise ConfigurationError(
                    "seat state 'pose_window' entries must be six finite "
                    f"numbers, got {vector!r}"
                )
        for sample in delay_samples:
            if not (
                isinstance(sample, (list, tuple))
                and len(sample) == 2
                and all(_is_finite_non_negative(v) for v in sample)
            ):
                raise ConfigurationError(
                    "seat state 'delay_samples' entries must be two finite "
                    f"numbers >= 0, got {sample!r}"
                )
        for video_id in delivered_ids:
            if not _is_int(video_id):
                raise ConfigurationError(
                    "seat state 'delivered_ids' entries must be ints, "
                    f"got {video_id!r}"
                )
        cap = state.get("cap_estimate_mbps")
        if not _is_finite_non_negative(cap):
            raise ConfigurationError(
                "seat state 'cap_estimate_mbps' must be a finite number "
                f">= 0, got {cap!r}"
            )
        center = _seat_int(state, "cache_center_cell")
        hits = _seat_int(state, "cache_hits")
        misses = _seat_int(state, "cache_misses")

        self.reset_user(user)
        # First, as it refuses a bad blob before restoring anything.
        self.scheduler.import_user(user, sched_state)
        for vector in pose_window:
            self.observe_pose(user, pose_row(vector))
        self._delay_model.restore_user(user, delay_samples)
        self._cap_estimates[user] = float(cap)
        self._delivered[user] = set(delivered_ids)
        if center >= 0:
            # move_to re-derives the resident window from the centre;
            # the hit counters are restored separately because move_to
            # deliberately counts nothing.
            self._tile_caches[user].move_to(center)
        self._tile_caches[user].hits = hits
        self._tile_caches[user].misses = misses

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def estimated_cap(self, user: int) -> float:
        """Safety-discounted capacity estimate used as ``B_n(t)``."""
        return self._cap_estimates[user] * self._safety

    def plan_slot(self, max_levels: Optional[Sequence[int]] = None) -> SlotPlan:
        """Allocate quality and select missing tiles for every user.

        ``max_levels`` optionally clamps each user's allocated level
        from above *after* allocation (a negative entry means no
        clamp).  The serving layer uses it for graceful degradation:
        a lagging or backpressured connection is forced down to the
        minimum level (the paper's constraint (7) floor) instead of
        being allowed to blow the slot deadline for everyone.
        """
        if self.content_refresh_slots > 0:
            epoch = self._slot // self.content_refresh_slots
            if epoch != self._epoch:
                # The scene's content advanced: previously delivered
                # tiles are stale and must be re-sent if requested.
                self._epoch = epoch
                for delivered in self._delivered:
                    delivered.clear()
        sizes: List[Sequence[float]] = []
        curves: List[QualityRateCurve] = []
        caps = []
        raw_caps = []

        # Every seat's display-time pose from one batched regression.
        # A seat with one observation plans with the row it observed;
        # a fitted row has its yaw and roll (columns 3 and 5) wrapped
        # once more, as a Pose built from it would be.
        rows = self._motion.predict()
        counts = self._motion.num_observations
        fitted = counts >= 2
        rows[fitted, 3::2] = (rows[fitted, 3::2] + 180.0) % 360.0 - 180.0
        # Seats with no pose yet plan a placeholder the allocator can
        # skip; cell 0 keeps the rate curve well defined.  Every live
        # seat's cell and tiles come from one batched sweep each.
        predicted: List[Optional[PoseRow]] = [None] * self.num_users
        cells: List[int] = [0] * self.num_users
        tile_sets: List[Tuple[int, ...]] = [()] * self.num_users
        live = (counts > 0).nonzero()[0]
        live_rows = rows[live]
        x, y, _, yaw, pitch, _ = live_rows.T
        live_cells = self.coverage.world.cells_of(x, y).tolist()
        live_tiles = self.coverage.tiles_to_deliver(yaw, pitch)
        for n, row, cell, tiles in zip(
            live.tolist(), live_rows.tolist(), live_cells, live_tiles
        ):
            predicted[n] = tuple(row)
            cells[n] = cell
            tile_sets[n] = tiles
        for n, pose in enumerate(predicted):
            held = self._seat_curves[n]
            if held is None or held[0] != cells[n]:
                held = (cells[n], self.database.rate_model.curve(cells[n]))
                self._seat_curves[n] = held
            curves.append(held[1])
            sizes.append(held[1].as_tuple())
            if pose is None:
                # An empty seat (no pose ever observed) must not draw
                # budget away from live users: a zero capacity makes
                # even the minimum level unaffordable, so the
                # allocator skips it (allow_skip is always on here).
                caps.append(0.0)
                raw_caps.append(0.0)
            else:
                caps.append(self.estimated_cap(n))
                raw_caps.append(self._cap_estimates[n])

        problem = self.scheduler.build_slot_problem(
            sizes,
            self._delay_model.delays(sizes),
            caps,
            self.server_budget_mbps,
            raw_caps_mbps=raw_caps,
            router_of=self.router_of,
            router_budgets_mbps=self.router_budgets_mbps,
        )
        levels = self.scheduler.allocate(problem)
        if max_levels is not None:
            if len(max_levels) != self.num_users:
                raise ConfigurationError(
                    f"max_levels must have {self.num_users} entries, "
                    f"got {len(max_levels)}"
                )
            levels = [
                min(level, int(cap)) if cap >= 0 else level
                for level, cap in zip(levels, max_levels)
            ]

        users: List[UserPlan] = []
        for n in range(self.num_users):
            level = levels[n] if predicted[n] is not None else 0
            missing_keys: List[TileKey] = []
            missing_bits: List[float] = []
            startup_delay_s = 0.0
            if level > 0:
                # In-memory tile window: a miss pays the disk fetch
                # before transmission; the window then re-centres.
                if not self._tile_caches[n].lookup(cells[n]):
                    startup_delay_s = self.cache_miss_penalty_s
                self._tile_caches[n].move_to(cells[n])
            if level > 0:
                # Per-frame burstiness: the curve is the GoP average,
                # the wire carries I/P-sized frames.
                frame_multiplier = self.gop.multiplier(self._slot, stream_id=n)
                for key in self.database.tiles_for(cells[n], tile_sets[n], level):
                    if VideoId.encode(key) not in self._delivered[n]:
                        missing_keys.append(key)
                        missing_bits.append(
                            self.database.tile_size_bits_from(
                                curves[n], key, self.slot_s
                            )
                            * frame_multiplier
                        )
            demand_mbps = sum(missing_bits) / 1e6 / self.slot_s
            users.append(
                UserPlan(
                    level=level,
                    predicted_pose=predicted[n],
                    cell_id=cells[n],
                    tile_indices=tile_sets[n],
                    missing_keys=missing_keys,
                    missing_bits=missing_bits,
                    demand_mbps=demand_mbps,
                    nominal_rate_mbps=sizes[n][level - 1] if level > 0 else 0.0,
                    startup_delay_s=startup_delay_s,
                )
            )
        return SlotPlan(slot=self._slot, users=users)

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def complete_slot(
        self,
        plan: SlotPlan,
        indicators: Sequence[int],
        delays_slots: Sequence[float],
        achieved_mbps: Sequence[float],
        delivered_ids: Sequence[Sequence[int]],
        released_ids: Sequence[Sequence[int]],
        poses: Sequence[Optional[Sequence[float]]] = (),
        telemetry: Optional[Telemetry] = None,
        displayed: Sequence[int] = (),
        covered: Sequence[int] = (),
    ) -> None:
        """Fold one slot's realized results into the server's state.

        The one uplink fold of both :meth:`SystemExperiment.run_repeat
        <repro.system.experiment.SystemExperiment.run_repeat>` and the
        serving loop.  ``delivered_ids[n]`` are the tiles that
        actually reached user ``n`` (the ACKs); ``released_ids[n]``
        the tiles its cache evicted; ``achieved_mbps[n]`` the rate the
        link actually sustained while the flow was transmitting.
        ``poses[n]``, when given and not ``None``, is the user's pose
        upload, a row stored as given (:meth:`observe_pose`).  The order is fixed: with a ``telemetry`` collector,
        one record per user (carrying ``displayed[n]``, ``covered[n]``
        and the capacity belief the plan was made with); then the pose
        uploads in seat order; then ACKs, capacity and delay samples
        and the QoE ledgers.
        """
        if telemetry is not None:
            for n, user_plan in enumerate(plan.users):
                telemetry.add(
                    SlotUserRecord(
                        slot=plan.slot,
                        user=n,
                        level=user_plan.level,
                        demand_mbps=user_plan.demand_mbps,
                        achieved_mbps=achieved_mbps[n],
                        believed_cap_mbps=self.estimated_cap(n),
                        displayed=bool(displayed[n]),
                        covered=bool(covered[n]),
                        delay_slots=delays_slots[n],
                    )
                )
        for n, pose in enumerate(poses):
            if pose is not None:
                self.observe_pose(n, pose)
        sampled: List[int] = []
        for n, user_plan in enumerate(plan.users):
            self._delivered[n].update(delivered_ids[n])
            self._delivered[n].difference_update(released_ids[n])

            demand = user_plan.demand_mbps
            achieved = float(achieved_mbps[n])
            if demand > _EPS:
                # The flow transmitted at its bottleneck rate, so the
                # achieved rate is a direct capacity sample (the EMA
                # estimation of Section V).
                est = self._cap_estimates[n]
                self._cap_estimates[n] = est + self._ema_alpha * (achieved - est)
            else:
                # Idle slot: no sample; probe upward slowly so the
                # estimate can recover after a bad stretch.
                self._cap_estimates[n] = min(
                    self._cap_estimates[n] * self.cap_probe_gain,
                    self.max_cap_mbps,
                )
            if user_plan.level > 0 and demand > _EPS:
                sampled.append(n)
        self._delay_model.observe(
            sampled,
            [plan.users[n].nominal_rate_mbps for n in sampled],
            [float(delays_slots[n]) for n in sampled],
        )
        self.scheduler.record_outcomes(plan.levels, indicators, delays_slots)
        self._slot += 1

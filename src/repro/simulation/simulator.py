"""The trace-driven simulator of Section IV.

Each episode replays one network trace and one motion trace per user.
Per slot the simulator:

1. predicts every user's pose with linear regression over the poses
   the server has received so far;
2. derives the content (viewpoint cell) and its rate curve
   ``f_c^R(q)``;
3. builds the per-slot problem with the *true* ``B_n(t)`` and ``B(t)``
   (the paper's simulation assumes the server knows the network
   perfectly) and asks the allocator for quality levels;
4. computes the M/M/1 delivery delay (eq. 13) of each user's chosen
   level;
5. evaluates the coverage indicator ``1_n(t)`` by comparing the
   delivered FoV-with-margin against the true pose;
6. folds everything into the per-user QoE ledgers.

Fast path
---------
The per-slot pipeline is hoisted out of the hot loop wherever the
inputs are allocator-independent: pose predictions and viewpoint
cells are precomputed per episode with vectorized numpy (bit-identical
to the sequential predictor — see
:func:`repro.prediction.motion.batch_linear_predictions`), rate curves
and M/M/1 delay closures are memoized, and every ``1_n(t)`` of an
episode comes from one batched coverage call.  Because the random
substrate depends only on ``(config.seed, episode)``, episodes are
independent and :meth:`TraceSimulator.run` can fan them out over a
process pool (``max_workers``) with results identical to the serial
path and returned in episode order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.content.projection import FieldOfView
from repro.content.rate import RateModel
from repro.content.tiles import GridWorld, TileGrid
from repro.core.allocation import QualityAllocator
from repro.core.qoe import QoEWeights
from repro.core.scheduler import CollaborativeVrScheduler
from repro.errors import ConfigurationError
from repro.obs.config import Obs
from repro.prediction.fov import CoverageEvaluator
from repro.prediction.motion import LinearMotionPredictor, batch_linear_predictions
from repro.prediction.pose import Pose
from repro.prediction.predictors import make_predictor
from repro.prediction.throughput import EmaThroughputEstimator
from repro.simulation import workers
from repro.simulation.delaymodel import MM1DelayModel
from repro.simulation.metrics import (
    EpisodeResult,
    MultiEpisodeResults,
    summarize_ledger,
)
from repro.system.telemetry import SlotUserRecord, Telemetry
from repro.traces.dataset import SlotSchedule, TraceDataset
from repro.traces.network import TraceCatalog
from repro.units import (
    DEFAULT_NUM_LEVELS,
    SERVER_MBPS_PER_USER,
    SLOT_DURATION_S,
)

#: Episodes of precomputed schedules/predictions kept per simulator.
_EPISODE_CACHE_LIMIT = 8
#: Distinct bandwidth values whose delay closures are memoized.
_DELAY_CACHE_LIMIT = 65536
#: Distinct viewpoint cells whose rate curves are memoized.  The
#: default 8 m world at 5 cm cells has 160 x 160 = 25 600 cells, so
#: the bound never binds there — it exists to keep a custom huge world
#: from growing the cache without limit.
_CURVE_CACHE_LIMIT = 65536


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of the Section IV simulation.

    Defaults follow the paper: six quality levels, alpha=0.02,
    beta=0.5, server budget 36 Mbps per user, 20-100 Mbps user traces.
    ``duration_slots`` defaults to a compact 30 simulated seconds —
    long enough for the running statistics to converge — rather than
    the paper's full 300 s; scale it up freely.
    """

    num_users: int = 5
    num_levels: int = DEFAULT_NUM_LEVELS
    weights: QoEWeights = field(default_factory=QoEWeights.simulation_defaults)
    duration_slots: int = 1800
    slot_s: float = SLOT_DURATION_S
    server_mbps_per_user: float = SERVER_MBPS_PER_USER
    margin_deg: float = 15.0
    cell_tolerance: int = 1
    predictor: str = "linear-regression"
    predictor_window: int = 10
    world_size_m: float = 8.0
    content_spread: float = 0.2
    #: Section IV assumes "the server has the perfect knowledge of the
    #: delay and throughput"; set False to feed the allocator EMA
    #: bandwidth estimates instead (the Section VI regime), bridging
    #: the simulator toward the real-system robustness study.
    perfect_network_knowledge: bool = True
    ema_alpha: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ConfigurationError(f"num_users must be >= 1, got {self.num_users}")
        if self.duration_slots < 1:
            raise ConfigurationError(
                f"duration_slots must be >= 1, got {self.duration_slots}"
            )
        if self.server_mbps_per_user <= 0:
            raise ConfigurationError(
                f"server budget per user must be positive, got {self.server_mbps_per_user}"
            )

    @property
    def server_budget_mbps(self) -> float:
        """``B(t) = 36 Mbps * N`` (constant, Section IV)."""
        return self.server_mbps_per_user * self.num_users


class TraceSimulator:
    """Replays episodes and evaluates allocators on them.

    The random substrate (traces, motion, content curves) depends only
    on ``(config.seed, episode)`` — every allocator sees exactly the
    same world, which is what makes the CDF comparisons of Figs. 2-3
    paired and fair.  The same independence lets :meth:`run` replay
    episodes in parallel worker processes, and lets one simulator
    reuse an episode's precomputed schedule and pose predictions
    across the allocators of a :meth:`compare`.
    """

    def __init__(self, config: SimulationConfig = SimulationConfig()) -> None:
        self.config = config
        self.world = GridWorld(
            0.0, config.world_size_m, 0.0, config.world_size_m, cell_size=0.05
        )
        self.grid = TileGrid()
        self.rate_model = RateModel(
            num_levels=config.num_levels,
            content_spread=config.content_spread,
            seed=config.seed,
        )
        self.dataset = TraceDataset(
            self.world,
            catalog=TraceCatalog(seed=config.seed),
            slot_s=config.slot_s,
            seed=config.seed,
        )
        self.coverage = CoverageEvaluator(
            self.world,
            self.grid,
            FieldOfView(),
            margin_deg=config.margin_deg,
            cell_tolerance=config.cell_tolerance,
        )
        self.delay_model = MM1DelayModel()
        # Allocator-independent per-episode state, reused across the
        # allocators of a compare(); bounded to the last few episodes.
        self._schedule_cache: Dict[Tuple[int, int, int], SlotSchedule] = {}
        self._prediction_cache: Dict[Tuple[int, int, int], List[List[Pose]]] = {}
        # Rate curves depend only on (model seed, cell): share forever.
        self._curve_cache: Dict[int, Tuple[float, ...]] = {}
        # One M/M/1 closure per distinct bandwidth value.
        self._delay_fn_cache: Dict[float, Callable[[float], float]] = {}

    def _make_predictor(self):
        """Instantiate the configured motion predictor."""
        if self.config.predictor == "linear-regression":
            return LinearMotionPredictor(
                window=self.config.predictor_window, horizon=1
            )
        return make_predictor(self.config.predictor, horizon=1)

    @staticmethod
    def _cache_put(cache: Dict, key, value) -> None:
        """Insert into a bounded insertion-ordered cache."""
        if len(cache) >= _EPISODE_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        cache[key] = value

    def _episode_schedule(self, episode: int) -> SlotSchedule:
        """The episode's replay inputs, memoized across allocators."""
        cfg = self.config
        key = (cfg.num_users, cfg.duration_slots, episode)
        schedule = self._schedule_cache.get(key)
        if schedule is None:
            schedule = self.dataset.episode(cfg.num_users, cfg.duration_slots, episode)
            self._cache_put(self._schedule_cache, key, schedule)
        return schedule

    def _episode_predictions(
        self, schedule: SlotSchedule, num_slots: int, episode: int
    ) -> List[List[Pose]]:
        """Predicted pose per (user, slot) — allocator-independent.

        The predictor only ever observes the *true* poses, which the
        schedule fixes upfront, so the whole prediction sequence can
        be computed once per episode.  The linear-regression default
        goes through the vectorized batch fit (bit-identical to the
        sequential predictor); other predictors replay sequentially.
        """
        cfg = self.config
        key = (cfg.num_users, num_slots, episode)
        cached = self._prediction_cache.get(key)
        if cached is not None:
            return cached
        predicted: List[List[Pose]] = []
        if cfg.predictor == "linear-regression":
            for n in range(cfg.num_users):
                vectors = np.array(
                    [p.as_vector() for p in schedule.poses[n][:num_slots]],
                    dtype=float,
                )
                fitted = batch_linear_predictions(
                    vectors, window=cfg.predictor_window, horizon=1
                )
                # Slot 0 has no observations: connection setup
                # delivers the initial pose, exactly as the sequential
                # loop falls back.
                row = [schedule.poses[n][0]]
                row.extend(Pose.from_vector(fitted[t]) for t in range(1, num_slots))
                predicted.append(row)
        else:
            for n in range(cfg.num_users):
                predictor = self._make_predictor()
                row = []
                for t in range(num_slots):
                    pose = predictor.predict()
                    row.append(pose if pose is not None else schedule.poses[n][t])
                    predictor.observe(schedule.poses[n][t])
                predicted.append(row)
        self._cache_put(self._prediction_cache, key, predicted)
        return predicted

    def _curve(self, cell: int) -> Tuple[float, ...]:
        """Rate curve of a viewpoint cell, memoized across episodes."""
        curve = self._curve_cache.get(cell)
        if curve is None:
            if len(self._curve_cache) >= _CURVE_CACHE_LIMIT:
                self._curve_cache.clear()
            curve = self._curve_cache[cell] = self.rate_model.curve(cell).as_tuple()
        return curve

    def _delay_fn(self, bandwidth_mbps: float) -> Callable[[float], float]:
        """Per-bandwidth M/M/1 closure, memoized instead of rebuilt."""
        fn = self._delay_fn_cache.get(bandwidth_mbps)
        if fn is None:
            if len(self._delay_fn_cache) >= _DELAY_CACHE_LIMIT:
                self._delay_fn_cache.clear()
            fn = self._delay_fn_cache[bandwidth_mbps] = self.delay_model.delay_fn(
                bandwidth_mbps
            )
        return fn

    def run_episode(
        self,
        allocator: QualityAllocator,
        episode: int = 0,
        telemetry: Optional[Telemetry] = None,
        obs: Optional[Obs] = None,
    ) -> EpisodeResult:
        """Simulate one episode with the given allocator.

        Pass a :class:`~repro.system.telemetry.Telemetry` collector to
        capture per-slot records (level, planned rate, believed and
        true bandwidth, coverage, delay) — the same forensics view the
        system emulation offers.  An :class:`~repro.obs.config.Obs`
        bundle mirrors episode/slot progress into its registry; both
        are pure observers of the seeded run.
        """
        cfg = self.config
        schedule = self._episode_schedule(episode)
        allocator.reset()
        scheduler = CollaborativeVrScheduler(
            cfg.num_users, allocator, cfg.weights, allow_skip=False
        )
        if obs is not None:
            scheduler.attach_registry(obs.registry)
            obs.registry.counter(
                "repro_sim_episodes_total", "Simulation episodes started"
            ).inc()
        estimators = (
            [
                EmaThroughputEstimator(alpha=cfg.ema_alpha)
                for _ in range(cfg.num_users)
            ]
            if not cfg.perfect_network_knowledge
            else None
        )

        num_slots = min(cfg.duration_slots, schedule.num_slots)
        predicted_poses = self._episode_predictions(schedule, num_slots, episode)
        # Viewpoint cells for every (user, slot) in two vectorized
        # sweeps; bit-identical to calling world.cell_of per slot.
        predicted_cells = self.world.cells_of(
            [[p.x for p in row] for row in predicted_poses],
            [[p.y for p in row] for row in predicted_poses],
        )
        actual_cells = self.world.cells_of(
            [[p.x for p in row[:num_slots]] for row in schedule.poses],
            [[p.y for p in row[:num_slots]] for row in schedule.poses],
        )
        # 1_n(t) for every (user, slot) in one batched call; the loop
        # reads it only where the user was served.
        covered = self.coverage.indicators(
            [p.yaw for row in predicted_poses for p in row],
            [p.pitch for row in predicted_poses for p in row],
            [p.yaw for row in schedule.poses for p in row[:num_slots]],
            [p.pitch for row in schedule.poses for p in row[:num_slots]],
            predicted_cells.ravel(),
            actual_cells.ravel(),
        ).reshape(predicted_cells.shape).tolist()

        for t in range(num_slots):
            caps = schedule.bandwidth_mbps[:, t]
            if estimators is None:
                believed_caps = [float(c) for c in caps]
            else:
                # Imperfect knowledge: the allocator sees the EMA of
                # *past* bandwidth samples, never the current truth.
                believed_caps = [
                    est.estimate() if est.num_samples else float(caps[n])
                    for n, est in enumerate(estimators)
                ]
            sizes: List[Sequence[float]] = []
            delay_fns = []
            for n in range(cfg.num_users):
                sizes.append(self._curve(int(predicted_cells[n][t])))
                delay_fns.append(self._delay_fn(believed_caps[n]))

            problem = scheduler.build_slot_problem(
                sizes, delay_fns, believed_caps, cfg.server_budget_mbps
            )
            levels = scheduler.allocate(problem)

            served = [n for n in range(cfg.num_users) if levels[n] > 0]
            indicators = [0] * cfg.num_users
            delays = [0.0] * cfg.num_users
            for n in served:
                indicators[n] = covered[n][t]
                delays[n] = self.delay_model.delay(
                    sizes[n][levels[n] - 1], float(caps[n])
                )

            scheduler.record_outcomes(levels, indicators, delays)
            if telemetry is not None:
                for n in range(cfg.num_users):
                    rate = sizes[n][levels[n] - 1] if levels[n] > 0 else 0.0
                    telemetry.add(
                        SlotUserRecord(
                            slot=t,
                            user=n,
                            level=levels[n],
                            demand_mbps=rate,
                            achieved_mbps=float(caps[n]),
                            believed_cap_mbps=believed_caps[n],
                            displayed=levels[n] > 0,
                            covered=bool(indicators[n]),
                            delay_slots=delays[n],
                        )
                    )
            if estimators is not None:
                for n in range(cfg.num_users):
                    estimators[n].observe(float(caps[n]))

        return EpisodeResult(
            users=[
                summarize_ledger(ledger, cfg.weights)
                for ledger in scheduler.ledgers
            ],
            episode=episode,
        )

    def run(
        self,
        allocator: QualityAllocator,
        num_episodes: int = 1,
        first_episode: int = 0,
        max_workers: Optional[int] = None,
    ) -> MultiEpisodeResults:
        """Simulate several episodes and pool the per-user samples.

        ``max_workers`` fans the episodes out over the persistent
        worker pool of :mod:`repro.simulation.workers`.  Episodes are
        independent by construction (seeded by ``(config.seed,
        episode)``), so the parallel path returns exactly the same
        :class:`MultiEpisodeResults` as the serial one, in episode
        order.  Serial replay is used whenever the pool would not pay
        for itself — ``None``/0/1 workers, a single episode, a
        single-core machine (see
        :func:`~repro.simulation.workers.parallel_decision`) — or
        cannot be used at all (unpicklable allocator, no fork
        support).
        """
        if num_episodes < 1:
            raise ConfigurationError(
                f"num_episodes must be >= 1, got {num_episodes}"
            )
        if max_workers is not None and max_workers < 0:
            raise ConfigurationError(
                f"max_workers must be non-negative, got {max_workers}"
            )
        results = MultiEpisodeResults(algorithm=allocator.name)
        episodes = range(first_episode, first_episode + num_episodes)
        decision = workers.parallel_decision(num_episodes, max_workers)
        if decision.use_parallel:
            assert max_workers is not None
            episode_results = workers.run_episodes(
                self.config, allocator, episodes, max_workers
            )
            if episode_results is not None:
                for episode_result in episode_results:
                    results.add(episode_result)
                return results
        for episode in episodes:
            results.add(self.run_episode(allocator, episode))
        return results

    def compare(
        self,
        allocators: Mapping[str, QualityAllocator],
        num_episodes: int = 1,
        max_workers: Optional[int] = None,
    ) -> Dict[str, MultiEpisodeResults]:
        """Run every allocator over the same episodes."""
        if not allocators:
            raise ConfigurationError("compare needs at least one allocator")
        return {
            name: self.run(allocator, num_episodes, max_workers=max_workers)
            for name, allocator in allocators.items()
        }

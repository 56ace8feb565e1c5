"""Trace datasets and the slot schedule that replays them.

Binds the network and motion generators into the per-episode inputs
the simulator consumes: for each user, a per-slot bandwidth array and
a per-slot pose sequence of equal length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.content.tiles import GridWorld
from repro.errors import ConfigurationError, TraceError
from repro.prediction.pose import Pose
from repro.traces.motion import MotionConfig, MotionTraceGenerator
from repro.traces.network import NetworkTrace, TraceCatalog
from repro.units import SLOT_DURATION_S


@dataclass(frozen=True)
class SlotSchedule:
    """Per-slot replay inputs for a population of users.

    Attributes
    ----------
    bandwidth_mbps:
        Array of shape ``(num_users, num_slots)``: ``B_n(t)``.
    poses:
        ``poses[n][t]`` is user ``n``'s true pose in slot ``t``.
    slot_s:
        Slot duration in seconds.
    """

    bandwidth_mbps: np.ndarray
    poses: List[List[Pose]]
    slot_s: float

    def __post_init__(self) -> None:
        if self.bandwidth_mbps.ndim != 2:
            raise ConfigurationError("bandwidth array must be 2-D (users x slots)")
        if len(self.poses) != self.bandwidth_mbps.shape[0]:
            raise ConfigurationError(
                f"pose list covers {len(self.poses)} users but bandwidth covers "
                f"{self.bandwidth_mbps.shape[0]}"
            )
        for n, user_poses in enumerate(self.poses):
            if len(user_poses) != self.bandwidth_mbps.shape[1]:
                raise ConfigurationError(
                    f"user {n}: {len(user_poses)} poses != "
                    f"{self.bandwidth_mbps.shape[1]} bandwidth slots"
                )

    @property
    def num_users(self) -> int:
        return int(self.bandwidth_mbps.shape[0])

    @property
    def num_slots(self) -> int:
        return int(self.bandwidth_mbps.shape[1])


class TraceDataset:
    """Builds :class:`SlotSchedule` episodes from the generators.

    Parameters
    ----------
    world:
        The scene's viewpoint grid (shared by all users).
    catalog:
        Network trace catalog; defaults to the paper's half-FCC /
        half-LTE mix.
    motion_config:
        Walker parameters.
    slot_s:
        Slot duration; the Section IV simulation quotes ~15 ms slots.
    seed:
        Base seed; episodes and users derive sub-seeds from it.
    """

    def __init__(
        self,
        world: GridWorld,
        catalog: TraceCatalog = None,
        motion_config: MotionConfig = MotionConfig(),
        slot_s: float = SLOT_DURATION_S,
        seed: int = 0,
    ) -> None:
        self.world = world
        self.catalog = catalog if catalog is not None else TraceCatalog(seed=seed)
        self.motion = MotionTraceGenerator(world, motion_config, slot_s)
        self.slot_s = slot_s
        self.seed = seed

    def episode(
        self,
        num_users: int,
        num_slots: int,
        episode: int = 0,
    ) -> SlotSchedule:
        """Materialise one episode's replay inputs.

        The network traces are expanded to per-slot arrays and
        truncated (or tiled) to ``num_slots``; motion traces are
        generated at exactly that length.
        """
        if num_users < 1:
            raise ConfigurationError(f"num_users must be >= 1, got {num_users}")
        if num_slots < 1:
            raise ConfigurationError(f"num_slots must be >= 1, got {num_slots}")

        bandwidth = np.empty((num_users, num_slots), dtype=float)
        for user in range(num_users):
            trace = self.catalog.trace_for(user, episode)
            slots = self._expand(trace, num_slots)
            bandwidth[user, :] = slots

        poses = [
            self.motion.generate(
                num_slots, np.random.default_rng((self.seed, episode, user, 3))
            )
            for user in range(num_users)
        ]
        return SlotSchedule(bandwidth, poses, self.slot_s)

    def _expand(self, trace: NetworkTrace, num_slots: int) -> np.ndarray:
        """Per-slot rates of length ``num_slots``, tiling if short."""
        slots = trace.to_slots(self.slot_s)
        if slots.size == 0:
            raise TraceError(f"trace {trace.name!r} shorter than one slot")
        if slots.size >= num_slots:
            return slots[:num_slots]
        reps = int(np.ceil(num_slots / slots.size))
        return np.tile(slots, reps)[:num_slots]


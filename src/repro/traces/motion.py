"""Synthetic 6-DoF motion traces.

Stand-in for the Firefly motion dataset (25 users over two large VR
scenes) that the paper replays.  The generator produces room-scale
motion whose statistics land a linear-regression predictor in the
same accuracy regime the paper reports implicitly through its
``delta_n`` estimates:

* **translation** — random-waypoint walking: pick a goal in the room,
  walk toward it at a bounded speed with small per-slot jitter, pause
  briefly at arrival;
* **head yaw** — an Ornstein-Uhlenbeck process pulled toward the
  walking direction, with occasional saccades toward a random target
  (users look around);
* **head pitch** — an OU process around a slightly downward-looking
  mean, clamped to physical limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Sequence, Tuple, Union, overload

import numpy as np

from repro.content.projection import wrap_angle_deg
from repro.content.tiles import GridWorld
from repro.errors import ConfigurationError
from repro.prediction.pose import Pose
from repro.units import SLOT_DURATION_S


@dataclass(frozen=True)
class MotionConfig:
    """Tunable parameters of the synthetic walker."""

    walk_speed_mps: float = 0.9
    speed_jitter: float = 0.15
    pause_probability: float = 0.003
    pause_slots_max: int = 120
    eye_height_m: float = 1.6
    yaw_pull: float = 0.02
    yaw_noise_deg: float = 0.8
    saccade_probability: float = 0.004
    saccade_max_deg: float = 120.0
    pitch_mean_deg: float = -5.0
    pitch_pull: float = 0.03
    pitch_noise_deg: float = 0.4
    pitch_limit_deg: float = 60.0

    @classmethod
    def walking(cls) -> "MotionConfig":
        """The default room-scale walking profile (VR touring)."""
        return cls()

    @classmethod
    def seated(cls) -> "MotionConfig":
        """A seated-classroom profile: almost no translation, livelier
        head movement (students looking around from their desks)."""
        return cls(
            walk_speed_mps=0.05,
            pause_probability=0.05,
            pause_slots_max=600,
            yaw_noise_deg=1.2,
            saccade_probability=0.01,
            saccade_max_deg=150.0,
            pitch_noise_deg=0.6,
        )

    def __post_init__(self) -> None:
        if self.walk_speed_mps <= 0:
            raise ConfigurationError(
                f"walk speed must be positive, got {self.walk_speed_mps}"
            )
        if not 0 <= self.pause_probability <= 1:
            raise ConfigurationError(
                f"pause probability must be in [0, 1], got {self.pause_probability}"
            )
        if not 0 <= self.saccade_probability <= 1:
            raise ConfigurationError(
                f"saccade probability must be in [0, 1], got {self.saccade_probability}"
            )
        # Pauses last integers(10, pause_slots_max) slots.
        if self.pause_slots_max <= 10:
            raise ConfigurationError(
                f"pause_slots_max must exceed 10, got {self.pause_slots_max}"
            )
        for name in (
            "speed_jitter", "yaw_noise_deg", "pitch_noise_deg", "saccade_max_deg",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be non-negative, got {getattr(self, name)}"
                )
        if not 0 < self.pitch_limit_deg <= 90:
            raise ConfigurationError(
                f"pitch limit must be in (0, 90], got {self.pitch_limit_deg}"
            )
        if abs(self.pitch_mean_deg) > self.pitch_limit_deg:
            raise ConfigurationError(
                f"pitch mean {self.pitch_mean_deg} exceeds the limit "
                f"{self.pitch_limit_deg}"
            )


class PoseTape(Sequence[Pose]):
    """A fixed-length pose sequence stepped from a walker on demand.

    Indexing slot ``i`` advances the walker just far enough to reach
    it, so a virtual phone pays for the motion it has played so far
    rather than for its whole run up front.  The poses are exactly
    the ones :meth:`MotionTraceGenerator.generate` would return for
    the same generator state.  Negative indices are rejected: a slot
    is always counted from the start of the run.
    """

    __slots__ = ("_walker", "_poses", "_length")

    def __init__(self, walker: Iterator[Pose], length: int) -> None:
        if length < 1:
            raise ConfigurationError(f"num_slots must be >= 1, got {length}")
        self._walker = walker
        self._poses: List[Pose] = []
        self._length = length

    def __len__(self) -> int:
        return self._length

    @overload
    def __getitem__(self, index: int) -> Pose: ...

    @overload
    def __getitem__(self, index: slice) -> List[Pose]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[Pose, List[Pose]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._length))]
        if not 0 <= index < self._length:
            raise IndexError(f"slot {index} outside tape of {self._length}")
        poses = self._poses
        while len(poses) <= index:
            poses.append(next(self._walker))
        return poses[index]


class MotionTraceGenerator:
    """Generates per-slot 6-DoF pose sequences inside a grid world."""

    def __init__(
        self,
        world: GridWorld,
        config: MotionConfig = MotionConfig(),
        slot_s: float = SLOT_DURATION_S,
    ) -> None:
        if slot_s <= 0:
            raise ConfigurationError(f"slot duration must be positive, got {slot_s}")
        # Waypoints keep a two-cell margin from every wall.
        margin = 2 * world.cell_size
        if (
            world.x_max - margin < world.x_min + margin
            or world.y_max - margin < world.y_min + margin
        ):
            raise ConfigurationError(
                "world too small for waypoints: need at least four cells "
                f"({2 * margin} m) per side"
            )
        self.world = world
        self.config = config
        self.slot_s = slot_s

    def walk(self, rng: np.random.Generator) -> Iterator[Pose]:
        """Step the walker forever, one pose per slot.

        The single walker core behind :meth:`generate` and
        :meth:`tape`.  It runs on Python floats but reproduces the
        array formulation bit for bit: ``uniform(lo, hi)`` is drawn as
        ``lo + (hi - lo) * random()`` (numpy's own formula), the goal
        distance is ``sqrt(v.dot(v))`` on a 2-vector (what
        ``np.linalg.norm`` computes), and ``np.exp`` and
        ``np.arctan2`` stay numpy because their ``math`` twins differ
        in the last bit on some inputs.
        """
        cfg = self.config
        world = self.world
        slot_s = self.slot_s
        margin = 2 * world.cell_size
        x_lo, x_hi = world.x_min + margin, world.x_max - margin
        y_lo, y_hi = world.y_min + margin, world.y_max - margin
        x_span, y_span = x_hi - x_lo, y_hi - y_lo
        saccade_lo, saccade_hi = -cfg.saccade_max_deg, cfg.saccade_max_deg
        saccade_span = saccade_hi - saccade_lo
        jitter_cap = 3.0 * cfg.speed_jitter
        wrap = wrap_angle_deg

        def waypoint() -> Tuple[float, float]:
            return x_lo + x_span * rng.random(), y_lo + y_span * rng.random()

        px, py = waypoint()
        gx, gy = waypoint()
        yaw = -180.0 + 360.0 * rng.random()
        yaw_target = yaw
        pitch = cfg.pitch_mean_deg
        pause_remaining = 0
        to_goal = np.empty(2)

        while True:
            if pause_remaining > 0:
                pause_remaining -= 1
            else:
                tx = gx - px
                ty = gy - py
                to_goal[0] = tx
                to_goal[1] = ty
                dist = math.sqrt(to_goal.dot(to_goal))
                if dist < 0.1:
                    gx, gy = waypoint()
                    if rng.random() < 0.5:
                        pause_remaining = int(rng.integers(10, cfg.pause_slots_max))
                else:
                    # Log-normal jitter clamped at 3 sigma: humans have a
                    # hard top walking speed.
                    jitter = min(
                        max(rng.normal(0.0, cfg.speed_jitter), -jitter_cap),
                        jitter_cap,
                    )
                    speed = cfg.walk_speed_mps * float(np.exp(jitter))
                    step = min(speed * slot_s, dist)
                    px = px + tx / dist * step
                    py = py + ty / dist * step
                    if rng.random() < cfg.pause_probability:
                        pause_remaining = int(rng.integers(10, cfg.pause_slots_max))
                    # While walking, the head is pulled toward the heading.
                    yaw_target = math.degrees(float(np.arctan2(ty, tx)))

            if rng.random() < cfg.saccade_probability:
                yaw_target = wrap(yaw + (saccade_lo + saccade_span * rng.random()))
            yaw_error = wrap(yaw_target - yaw)
            yaw = wrap(
                yaw + cfg.yaw_pull * yaw_error + rng.normal(0.0, cfg.yaw_noise_deg)
            )
            pitch += cfg.pitch_pull * (cfg.pitch_mean_deg - pitch) + rng.normal(
                0.0, cfg.pitch_noise_deg
            )
            pitch = min(max(pitch, -cfg.pitch_limit_deg), cfg.pitch_limit_deg)

            x, y = world.clamp(px, py)
            yield Pose(x, y, cfg.eye_height_m, yaw, pitch, 0.0)

    def generate(self, num_slots: int, rng: np.random.Generator) -> List[Pose]:
        """Generate a pose per slot.

        Parameters
        ----------
        num_slots:
            Trace length in slots.
        rng:
            Source of randomness; pass a seeded generator for
            reproducible traces.
        """
        if num_slots < 1:
            raise ConfigurationError(f"num_slots must be >= 1, got {num_slots}")
        return list(islice(self.walk(rng), num_slots))

    def tape(self, num_slots: int, rng: np.random.Generator) -> PoseTape:
        """A ``num_slots`` trace that is walked only as it is read.

        Equal pose for pose to :meth:`generate` with the same *rng*
        state; *rng* is consumed lazily, so it must not be shared.
        """
        return PoseTape(self.walk(rng), num_slots)

    def generate_users(
        self, num_users: int, num_slots: int, seed: int = 0
    ) -> List[List[Pose]]:
        """Independent traces for a population of users."""
        if num_users < 1:
            raise ConfigurationError(f"num_users must be >= 1, got {num_users}")
        return [
            self.generate(num_slots, np.random.default_rng((seed, user)))
            for user in range(num_users)
        ]

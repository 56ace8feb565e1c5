"""Reference copy of the array-based random-waypoint walker.

This is the motion generator's loop as it was written with numpy
arrays, kept verbatim so the scalar walker in
:mod:`repro.traces.motion` can be checked pose for pose against it.
It lives under ``tests/`` only and is never imported by the package.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.content.projection import wrap_angle_deg
from repro.content.tiles import GridWorld
from repro.prediction.pose import Pose
from repro.traces.motion import MotionConfig


def _random_waypoint(world: GridWorld, rng: np.random.Generator) -> np.ndarray:
    margin = 2 * world.cell_size
    x = rng.uniform(world.x_min + margin, world.x_max - margin)
    y = rng.uniform(world.y_min + margin, world.y_max - margin)
    return np.array([x, y])


def reference_generate(
    world: GridWorld,
    cfg: MotionConfig,
    slot_s: float,
    num_slots: int,
    rng: np.random.Generator,
) -> List[Pose]:
    """The original ``MotionTraceGenerator.generate`` loop."""
    pos = _random_waypoint(world, rng)
    goal = _random_waypoint(world, rng)
    yaw = float(rng.uniform(-180.0, 180.0))
    yaw_target = yaw
    pitch = cfg.pitch_mean_deg
    pause_remaining = 0
    poses: List[Pose] = []

    for _ in range(num_slots):
        to_goal = goal - pos
        dist = float(np.linalg.norm(to_goal))
        if pause_remaining > 0:
            pause_remaining -= 1
        elif dist < 0.1:
            goal = _random_waypoint(world, rng)
            if rng.uniform() < 0.5:
                pause_remaining = int(rng.integers(10, cfg.pause_slots_max))
        else:
            # Log-normal jitter clamped at 3 sigma: humans have a
            # hard top walking speed.
            jitter = float(
                np.clip(
                    rng.normal(0.0, cfg.speed_jitter),
                    -3.0 * cfg.speed_jitter,
                    3.0 * cfg.speed_jitter,
                )
            )
            speed = cfg.walk_speed_mps * float(np.exp(jitter))
            step = min(speed * slot_s, dist)
            pos = pos + to_goal / dist * step
            if rng.uniform() < cfg.pause_probability:
                pause_remaining = int(rng.integers(10, cfg.pause_slots_max))
            # While walking, the head is pulled toward the heading.
            heading = float(np.degrees(np.arctan2(to_goal[1], to_goal[0])))
            yaw_target = heading

        if rng.uniform() < cfg.saccade_probability:
            yaw_target = wrap_angle_deg(
                yaw + float(rng.uniform(-cfg.saccade_max_deg, cfg.saccade_max_deg))
            )
        yaw_error = wrap_angle_deg(yaw_target - yaw)
        yaw = wrap_angle_deg(
            yaw + cfg.yaw_pull * yaw_error + float(rng.normal(0.0, cfg.yaw_noise_deg))
        )
        pitch += cfg.pitch_pull * (cfg.pitch_mean_deg - pitch) + float(
            rng.normal(0.0, cfg.pitch_noise_deg)
        )
        pitch = min(max(pitch, -cfg.pitch_limit_deg), cfg.pitch_limit_deg)

        x, y = world.clamp(float(pos[0]), float(pos[1]))
        poses.append(Pose(x, y, cfg.eye_height_m, yaw, pitch, 0.0))
    return poses

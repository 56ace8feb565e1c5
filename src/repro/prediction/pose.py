"""6-degree-of-freedom pose.

Three translational DoFs (virtual location, metres) and three
rotational DoFs (head orientation, degrees): the motion state the
paper's predictor tracks per user (Section II).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.content.projection import angular_difference_deg, wrap_angle_deg
from repro.errors import ConfigurationError

#: A pose as six floats, (x, y, z, yaw, pitch, roll).
PoseRow = Tuple[float, float, float, float, float, float]


def is_finite_vector(vec: object) -> bool:
    """Whether ``vec`` is six finite real numbers.

    Untrusted poses (wire frames, JSON handoff blobs) are checked with
    this: downstream, a NaN becomes a garbage cell, not an error.
    """
    if not isinstance(vec, (list, tuple)) or len(vec) != 6:
        return False
    try:
        return all(map(math.isfinite, vec))
    except (TypeError, OverflowError):
        return False


def pose_row(vec: Sequence[float]) -> PoseRow:
    """``Pose.from_vector(vec).as_vector()`` without building the pose.

    Pitch is clamped, then yaw and roll wrapped.  Normalise a row from
    outside once: a second wrap turns a wrapped 180.0 into -180.0.
    """
    if len(vec) != 6:
        raise ConfigurationError(f"expected 6 DoF values, got {len(vec)}")
    x, y, z, yaw, pitch, roll = (float(v) for v in vec)
    pitch = min(max(pitch, -90.0), 90.0)
    return (x, y, z, wrap_angle_deg(yaw), pitch, wrap_angle_deg(roll))


@dataclass(frozen=True)
class Pose:
    """A 6-DoF pose: position in metres, orientation in degrees.

    ``yaw`` wraps into ``[-180, 180)``; ``pitch`` is clamped-checked
    to ``[-90, 90]``; ``roll`` wraps like yaw.
    """

    x: float
    y: float
    z: float
    yaw: float
    pitch: float
    roll: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 <= self.pitch <= 90.0:
            raise ConfigurationError(f"pitch must be in [-90, 90], got {self.pitch}")
        object.__setattr__(self, "yaw", wrap_angle_deg(self.yaw))
        object.__setattr__(self, "roll", wrap_angle_deg(self.roll))

    def position(self) -> Tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def orientation(self) -> Tuple[float, float, float]:
        return (self.yaw, self.pitch, self.roll)

    def as_vector(self) -> PoseRow:
        """All six DoFs as a flat tuple (x, y, z, yaw, pitch, roll)."""
        return (self.x, self.y, self.z, self.yaw, self.pitch, self.roll)

    def translation_distance(self, other: "Pose") -> float:
        """Euclidean distance between the two positions."""
        return (
            (self.x - other.x) ** 2
            + (self.y - other.y) ** 2
            + (self.z - other.z) ** 2
        ) ** 0.5

    def orientation_distance(self, other: "Pose") -> float:
        """Largest per-axis angular difference in degrees."""
        return max(
            angular_difference_deg(self.yaw, other.yaw),
            abs(self.pitch - other.pitch),
            angular_difference_deg(self.roll, other.roll),
        )

    @staticmethod
    def from_vector(vec: Sequence[float]) -> "Pose":
        """Build a pose from a 6-element sequence (see :func:`pose_row`)."""
        x, y, z, _, pitch, _ = pose_row(vec)
        # The constructor wraps yaw and roll itself, once.
        return Pose(x, y, z, float(vec[3]), pitch, float(vec[5]))

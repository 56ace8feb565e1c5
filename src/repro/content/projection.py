"""Field-of-view geometry on the equirectangular panorama.

The paper projects each panoramic scene into a rectangular texture
using the equirectangular method and splits it into tiles (Fig. 5).
For scheduling purposes we need the *angular* geometry: which portion
of the panorama a user's field of view (FoV) occupies, how much a
safety margin enlarges it, and what fraction of the sphere it covers
(Section II quotes ~20%).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError


def wrap_angle_deg(angle: float) -> float:
    """Wrap an angle in degrees into ``[-180, 180)``."""
    wrapped = (angle + 180.0) % 360.0 - 180.0
    return wrapped


def angular_difference_deg(a: float, b: float) -> float:
    """Smallest absolute difference between two angles in degrees."""
    return abs(wrap_angle_deg(a - b))


@dataclass(frozen=True)
class FieldOfView:
    """A rectangular (in angle space) field of view.

    Parameters
    ----------
    horizontal_deg:
        Horizontal extent (yaw span) in degrees.
    vertical_deg:
        Vertical extent (pitch span) in degrees.

    The default 90 x 90 degrees covers ~18% of the sphere, matching
    the paper's "about 20% of the panoramic view".
    """

    horizontal_deg: float = 90.0
    vertical_deg: float = 90.0

    def __post_init__(self) -> None:
        if not 0 < self.horizontal_deg <= 360:
            raise ConfigurationError(
                f"horizontal_deg must be in (0, 360], got {self.horizontal_deg}"
            )
        if not 0 < self.vertical_deg <= 180:
            raise ConfigurationError(
                f"vertical_deg must be in (0, 180], got {self.vertical_deg}"
            )

    def with_margin(self, margin_deg: float) -> "FieldOfView":
        """Enlarge the FoV by ``margin_deg`` on every side.

        This is the fixed margin of Section II used to absorb head
        orientation prediction error.
        """
        if margin_deg < 0:
            raise ConfigurationError(f"margin must be non-negative, got {margin_deg}")
        return FieldOfView(
            min(self.horizontal_deg + 2 * margin_deg, 360.0),
            min(self.vertical_deg + 2 * margin_deg, 180.0),
        )

    def yaw_range(self, yaw_deg: float) -> Tuple[float, float]:
        """(lo, hi) yaw bounds around a center; may straddle +-180."""
        half = self.horizontal_deg / 2.0
        return (yaw_deg - half, yaw_deg + half)

    def pitch_range(self, pitch_deg: float) -> Tuple[float, float]:
        """(lo, hi) pitch bounds around a center, clamped to the poles."""
        half = self.vertical_deg / 2.0
        return (max(pitch_deg - half, -90.0), min(pitch_deg + half, 90.0))

    def contains(self, yaw_deg: float, pitch_deg: float, center_yaw: float, center_pitch: float) -> bool:
        """True when a direction falls inside the FoV at a given center."""
        if angular_difference_deg(yaw_deg, center_yaw) > self.horizontal_deg / 2.0:
            return False
        return abs(pitch_deg - center_pitch) <= self.vertical_deg / 2.0


def fov_solid_angle_fraction(fov: FieldOfView) -> float:
    """Fraction of the full sphere subtended by the FoV.

    For a yaw span ``H`` and pitch span ``V`` centred on the equator,
    the solid angle is ``H_rad * 2 * sin(V/2)``; dividing by ``4 pi``
    gives the fraction.  The default 90 x 90 FoV yields ~0.177,
    consistent with the paper's 20% figure.
    """
    h_rad = math.radians(fov.horizontal_deg)
    v_half_rad = math.radians(fov.vertical_deg / 2.0)
    return h_rad * 2.0 * math.sin(v_half_rad) / (4.0 * math.pi)


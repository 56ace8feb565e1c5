"""Reference copy of the scalar per-axis motion regression.

This is ``LinearMotionPredictor`` as it was written before the package
routed every motion prediction through
:func:`repro.prediction.motion.fit_windows`: one window at a time, one
axis at a time, in 1-D numpy arithmetic.  It is kept verbatim so the
vectorized fit — through the scalar predictor, the simulator's
``batch_linear_predictions`` and the kernel's ``BatchMotionPredictor``
— can be checked bit for bit against independent code.  It lives
under ``tests/`` only and is never imported by the package.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Sequence, Tuple

import numpy as np

from repro.content.projection import wrap_angle_deg
from repro.errors import ConfigurationError
from repro.prediction.pose import Pose

#: Axis indices within Pose.as_vector() that hold wrapping angles.
_ANGULAR_AXES = (3, 5)
#: Axis index of pitch (clamped, not wrapped).
_PITCH_AXIS = 4


def _unwrap_deg(values: np.ndarray) -> np.ndarray:
    """Unwrap a degree series so consecutive steps are < 180 apart."""
    return np.degrees(np.unwrap(np.radians(values)))


class ReferenceLinearMotionPredictor:
    """Sliding-window linear regression over each DoF axis.

    Parameters
    ----------
    window:
        Number of most recent poses used for the fit.  With fewer than
        two observations the predictor falls back to the last pose
        (or ``None`` before any observation).
    horizon:
        How many slots ahead to extrapolate (the paper predicts the
        next time slot; the t/t+1/t+2 pipeline of Section V needs a
        2-slot horizon on the client display path).
    """

    def __init__(self, window: int = 10, horizon: int = 1) -> None:
        if window < 2:
            raise ConfigurationError(f"window must be >= 2, got {window}")
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        self.window = window
        self.horizon = horizon
        self._history: Deque[Pose] = deque(maxlen=window)

    def observe(self, pose: Pose) -> None:
        """Record the pose measured in the current slot."""
        self._history.append(pose)

    @property
    def num_observations(self) -> int:
        return len(self._history)

    def reset(self) -> None:
        """Forget all history (e.g., after a teleport/scene change)."""
        self._history.clear()

    def export_state(self) -> Tuple[Tuple[float, ...], ...]:
        """The observed pose window as plain vectors (oldest first)."""
        return tuple(tuple(p.as_vector()) for p in self._history)

    def restore_state(self, vectors: Sequence[Sequence[float]]) -> None:
        """Rebuild the pose window from :meth:`export_state` output.

        Replays the vectors through :meth:`observe`, so a restored
        predictor produces bit-identical predictions to the original
        (the session-migration handoff relies on this).
        """
        self._history.clear()
        for vector in vectors:
            self.observe(Pose.from_vector(vector))

    def predict(self, horizon: Optional[int] = None) -> Optional[Pose]:
        """Extrapolate the pose ``horizon`` slots past the last one.

        Returns ``None`` before the first observation; with a single
        observation returns it unchanged (zero-velocity assumption).
        """
        if not self._history:
            return None
        h = self.horizon if horizon is None else horizon
        if h < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {h}")
        if len(self._history) == 1:
            return self._history[0]

        n = len(self._history)
        times = np.arange(n, dtype=float)
        target_t = float(n - 1 + h)
        data = np.array([p.as_vector() for p in self._history], dtype=float)

        predicted = np.empty(6, dtype=float)
        for axis in range(6):
            series = data[:, axis]
            if axis in _ANGULAR_AXES:
                series = _unwrap_deg(series)
            # Degree-1 least squares fit; closed form avoids polyfit's
            # rank warnings on constant series.
            t_mean = times.mean()
            s_mean = series.mean()
            denom = float(((times - t_mean) ** 2).sum())
            slope = float(((times - t_mean) * (series - s_mean)).sum()) / denom
            predicted[axis] = s_mean + slope * (target_t - t_mean)

        predicted[_PITCH_AXIS] = min(max(predicted[_PITCH_AXIS], -90.0), 90.0)
        for axis in _ANGULAR_AXES:
            predicted[axis] = wrap_angle_deg(predicted[axis])
        return Pose.from_vector(predicted)

    def predict_or_last(self, horizon: Optional[int] = None) -> Pose:
        """Like :meth:`predict` but raises if no pose was ever seen."""
        pose = self.predict(horizon)
        if pose is None:
            raise ConfigurationError("predict_or_last called before any observation")
        return pose


"""Per-axis linear-regression 6-DoF motion prediction.

Section V: "We use linear regression to predict the virtual position
and head orientation in each axis independently, which follows the
methodology in [Firefly]."

A sliding window of the last ``window`` observed poses is kept per
user; each axis is fit with a degree-1 least-squares line over slot
indices and extrapolated ``horizon`` slots ahead.  Angular axes are
unwrapped before fitting so a yaw trajectory crossing the +-180
boundary does not produce a spurious 360-degree jump.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.prediction.pose import Pose

#: Axis indices within Pose.as_vector() that hold wrapping angles.
_ANGULAR_AXES = (3, 5)
#: Axis index of pitch (clamped, not wrapped).
_PITCH_AXIS = 4


def _unwrap_deg(values: np.ndarray) -> np.ndarray:
    """Unwrap a degree series so consecutive steps are < 180 apart."""
    return np.degrees(np.unwrap(np.radians(values)))


def fit_windows(windows: np.ndarray, horizon: int) -> np.ndarray:
    """The per-axis regression: one predicted vector per pose window.

    ``windows`` is a ``(G, n, 6)`` array of ``G`` windows of ``n >= 2``
    observed pose vectors each (oldest first).  Each axis is fit with
    the closed-form degree-1 least-squares line over slot indices
    (polyfit's rank warnings on constant series never arise) and read
    ``horizon`` slots past the last pose; pitch is clamped and the
    angles wrapped.  Returns ``(G, 6)``.  Every linear-regression
    predictor in the package calls this one function, which keeps the
    scalar, the per-trajectory and the across-user predictions equal
    bit for bit.
    """
    length = windows.shape[1]
    times = np.arange(length, dtype=float)
    target_t = float(length - 1 + horizon)
    t_mean = times.mean()
    centered_t = times - t_mean
    denom = float((centered_t ** 2).sum())
    predicted = np.empty((windows.shape[0], 6), dtype=float)
    for axis in range(6):
        series = windows[:, :, axis]
        if axis in _ANGULAR_AXES:
            series = _unwrap_deg(series)
        s_mean = series.mean(axis=-1)
        slope = (centered_t * (series - s_mean[:, None])).sum(axis=-1) / denom
        predicted[:, axis] = s_mean + slope * (target_t - t_mean)
    predicted[:, _PITCH_AXIS] = np.minimum(
        np.maximum(predicted[:, _PITCH_AXIS], -90.0), 90.0
    )
    for axis in _ANGULAR_AXES:
        predicted[:, axis] = (predicted[:, axis] + 180.0) % 360.0 - 180.0
    return predicted


class LinearMotionPredictor:
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

        data = np.array([[p.as_vector() for p in self._history]], dtype=float)
        return Pose.from_vector(fit_windows(data, h)[0])

    def predict_or_last(self, horizon: Optional[int] = None) -> Pose:
        """Like :meth:`predict` but raises if no pose was ever seen."""
        pose = self.predict(horizon)
        if pose is None:
            raise ConfigurationError("predict_or_last called before any observation")
        return pose


def batch_linear_predictions(
    pose_vectors: np.ndarray, window: int, horizon: int = 1
) -> np.ndarray:
    """All of one trajectory's predictions at once, for the simulator.

    ``pose_vectors`` holds a user's *observed* poses as a ``(T, 6)``
    array (``Pose.as_vector`` rows).  Returns a ``(T, 6)`` array whose
    row ``t`` equals what ``LinearMotionPredictor(window, horizon)``
    would return from ``predict()`` after observing poses ``0..t-1`` —
    the simulator's per-slot call sequence — computed with identical
    arithmetic, so the results match the sequential predictor
    bit-for-bit.  Row 0 is NaN (no observation yet); the caller
    applies its own fallback, as the simulator does.

    Warm-up rows (fewer than ``window`` observations) are fit one
    prefix at a time; full windows go through one :func:`fit_windows`
    call over a sliding-window view.
    """
    if window < 2:
        raise ConfigurationError(f"window must be >= 2, got {window}")
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    vectors = np.asarray(pose_vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[1] != 6:
        raise ConfigurationError(
            f"pose_vectors must have shape (T, 6), got {vectors.shape}"
        )
    num_slots = vectors.shape[0]
    out = np.full((num_slots, 6), np.nan)
    if num_slots > 1:
        out[1] = vectors[0]  # single observation: zero-velocity fallback
    for t in range(2, min(window, num_slots)):
        out[t] = fit_windows(vectors[None, :t], horizon)[0]
    if num_slots <= window:
        return out
    # windows[i] = vectors[i : i + window] predicts slot t = i + window.
    windows = np.lib.stride_tricks.sliding_window_view(vectors, window, axis=0)
    out[window:] = fit_windows(
        windows[: num_slots - window].transpose(0, 2, 1), horizon
    )
    return out

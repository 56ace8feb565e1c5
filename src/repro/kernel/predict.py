"""Batched linear-regression motion prediction across users.

:class:`~repro.prediction.motion.LinearMotionPredictor` fits one user
at a time; a 10k-user slot pays 10k python fits.
:class:`BatchMotionPredictor` keeps every user's sliding window in one
``(N, window, 6)`` array and fits all users of equal history
length in one :func:`~repro.prediction.motion.fit_windows` call — the
same regression the per-user predictor runs, so predictions agree
bit-for-bit (property-tested in ``tests/kernel/test_batch_predictor.py``).
The edge server keeps every seat's pose window here and predicts all
seats with one :meth:`BatchMotionPredictor.predict` call per slot.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.prediction.motion import fit_windows


class BatchMotionPredictor:
    """Across-user batched twin of ``LinearMotionPredictor``.

    Users are addressed by index ``0..num_users-1``; each keeps an
    independent sliding window, observed and predicted for the whole
    population at once.  Users with no observations predict NaN rows
    (the per-user predictor returns ``None``); a single observation
    predicts the last pose unchanged, like the scalar fallback.
    """

    def __init__(self, num_users: int, window: int = 10, horizon: int = 1) -> None:
        if num_users < 1:
            raise ConfigurationError(f"num_users must be >= 1, got {num_users}")
        if window < 2:
            raise ConfigurationError(f"window must be >= 2, got {window}")
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        self.num_users = num_users
        self.window = window
        self.horizon = horizon
        # Each user's last ``window`` poses, oldest first and newest in
        # the last row; only the last ``count`` rows are ever read.
        self._buffer = np.zeros((num_users, window, 6), dtype=float)
        self._counts = np.zeros(num_users, dtype=np.int64)

    @property
    def num_observations(self) -> np.ndarray:
        """Window fill per user (capped at ``window``)."""
        return self._counts.copy()

    def observe(
        self, vectors: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> None:
        """Record this slot's measured pose vectors.

        ``vectors`` is ``(num_users, 6)``; ``mask`` selects the users
        that actually reported (all of them by default) — unmasked
        users keep their window untouched, like a scalar predictor
        that simply was not called.
        """
        vectors = np.asarray(vectors, dtype=float)
        if vectors.shape != (self.num_users, 6):
            raise ConfigurationError(
                f"vectors must be ({self.num_users}, 6), got {vectors.shape}"
            )
        if mask is None:
            users = np.arange(self.num_users, dtype=np.int64)
        else:
            users = np.nonzero(np.asarray(mask, dtype=bool))[0]
        if users.size == 0:
            return
        self._buffer[users, :-1] = self._buffer[users, 1:]
        self._buffer[users, -1] = vectors[users]
        self._counts[users] = np.minimum(self._counts[users] + 1, self.window)

    def observe_user(self, user: int, vector: Sequence[float]) -> None:
        """Record one user's measured pose vector (a one-seat observe)."""
        self._check_user(user)
        rows = self._buffer[user]
        rows[:-1] = rows[1:]
        rows[-1] = vector
        self._counts[user] = min(int(self._counts[user]) + 1, self.window)

    def export_user(self, user: int) -> List[List[float]]:
        """One user's pose window as plain vectors (oldest first)."""
        self._check_user(user)
        return self._buffer[user, self.window - int(self._counts[user]):].tolist()

    def reset_user(self, user: int) -> None:
        """Forget one user's history (teleport / seat reuse)."""
        self._check_user(user)
        self._counts[user] = 0

    def _check_user(self, user: int) -> None:
        if not 0 <= user < self.num_users:
            raise ConfigurationError(
                f"user index must be in [0, {self.num_users}), got {user}"
            )

    def reset(self) -> None:
        """Forget all history."""
        self._counts[:] = 0

    def predict(self, horizon: Optional[int] = None) -> np.ndarray:
        """``(num_users, 6)`` predicted pose vectors for the next slot.

        Rows of users with no observations are NaN.  Bit-identical to
        calling ``LinearMotionPredictor.predict`` per user.
        """
        h = self.horizon if horizon is None else horizon
        if h < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {h}")
        out = np.full((self.num_users, 6), np.nan, dtype=float)
        singles = np.nonzero(self._counts == 1)[0]
        if singles.size:
            out[singles] = self._buffer[singles, -1]
        # A set, not ``np.unique``: that would import ``numpy.ma``.
        for length in sorted(set(self._counts[self._counts >= 2].tolist())):
            users = np.nonzero(self._counts == length)[0]
            out[users] = fit_windows(self._buffer[users, self.window - length:], h)
        return out

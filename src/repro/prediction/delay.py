"""Polynomial-regression delay prediction.

Section V: "the relationship between the delay and the rate is
non-linear.  Therefore, we use polynomial regression to predict the
delay instead of linear regression to avoid extra performance
degradation."

The predictor keeps a sliding window of measured (rate, delay)
samples — on the real system these come from first/last-packet
timestamps per slot — fits a low-degree polynomial, and answers
"what delay should I expect if I send at rate r?" queries for the
scheduler's ``E[d_n(f^R(q))]`` term.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


class PolynomialDelayPredictor:
    """Sliding-window polynomial fit of delay as a function of rate.

    Parameters
    ----------
    degree:
        Polynomial degree; 2 captures the convex bend of the measured
        RTT curve (Fig. 1b) without overfitting.
    window:
        Number of recent samples retained.
    min_samples:
        Below this count the predictor answers with the mean observed
        delay (or ``fallback_delay`` when empty) instead of fitting.
    fallback_delay:
        Prediction before any data arrives.
    """

    def __init__(
        self,
        degree: int = 2,
        window: int = 120,
        min_samples: int = 8,
        fallback_delay: float = 0.5,
    ) -> None:
        if degree < 1:
            raise ConfigurationError(f"degree must be >= 1, got {degree}")
        if window < degree + 1:
            raise ConfigurationError(
                f"window must exceed degree; got window={window}, degree={degree}"
            )
        if min_samples < degree + 1:
            raise ConfigurationError(
                f"min_samples must be at least degree + 1, got {min_samples}"
            )
        if fallback_delay < 0:
            raise ConfigurationError(
                f"fallback_delay must be non-negative, got {fallback_delay}"
            )
        self.degree = degree
        self.min_samples = min_samples
        self.fallback_delay = fallback_delay
        self._samples: Deque[Tuple[float, float]] = deque(maxlen=window)
        # Highest power first, as np.polyfit returns them.
        self._coeffs: Tuple[float, ...] = ()
        self._dirty = True

    @property
    def num_samples(self) -> int:
        return len(self._samples)

    def observe(self, rate_mbps: float, delay: float) -> None:
        """Record one measured (sending rate, delay) pair.

        A non-finite sample would make every prediction NaN until it
        left the window, so NaN and infinities are refused.
        """
        if not (math.isfinite(rate_mbps) and rate_mbps >= 0):
            raise ConfigurationError(
                f"rate must be finite and non-negative, got {rate_mbps}"
            )
        if not (math.isfinite(delay) and delay >= 0):
            raise ConfigurationError(
                f"delay must be finite and non-negative, got {delay}"
            )
        self._samples.append((rate_mbps, delay))
        self._dirty = True

    def _fit(self) -> None:
        rates = np.array([s[0] for s in self._samples], dtype=float)
        delays = np.array([s[1] for s in self._samples], dtype=float)
        # A window of near-identical rates makes the Vandermonde matrix
        # rank deficient; degrade the fit degree to what the data
        # supports instead of emitting garbage coefficients.  (A set,
        # not ``np.unique``: that would import ``numpy.ma`` mid-slot.)
        distinct = len(set(np.round(rates, 6).tolist()))
        degree = min(self.degree, max(distinct - 1, 0))
        if degree == 0:
            self._coeffs = (float(delays.mean()),)
        else:
            self._coeffs = tuple(np.polyfit(rates, delays, degree).tolist())
        self._dirty = False

    def predict(self, rate_mbps: float) -> float:
        """Expected delay at the given sending rate (never negative)."""
        if rate_mbps < 0:
            raise ConfigurationError(f"rate must be non-negative, got {rate_mbps}")
        if len(self._samples) < self.min_samples:
            if not self._samples:
                return self.fallback_delay
            return float(np.mean([s[1] for s in self._samples]))
        if self._dirty:
            self._fit()
        # Horner's rule in Python floats: np.polyval's exact sequence
        # of multiplies and adds, without a numpy scalar per query.
        rate = float(rate_mbps)
        value = 0.0
        for coeff in self._coeffs:
            value = value * rate + coeff
        return max(value, 0.0)

    def reset(self) -> None:
        self._samples.clear()
        self._coeffs = ()
        self._dirty = True

    def export_state(self) -> Tuple[Tuple[float, float], ...]:
        """The (rate, delay) sample window (oldest first)."""
        return tuple(self._samples)

    def restore_state(self, samples: Sequence[Tuple[float, float]]) -> None:
        """Rebuild the sample window from :meth:`export_state` output.

        Replays the samples through :meth:`observe`, so the refit
        coefficients — hence every later prediction — are bit-identical
        to the original predictor's.
        """
        self.reset()
        for rate_mbps, delay in samples:
            self.observe(float(rate_mbps), float(delay))

"""Polynomial-regression delay prediction.

Section V: "the relationship between the delay and the rate is
non-linear.  Therefore, we use polynomial regression to predict the
delay instead of linear regression to avoid extra performance
degradation."

Each seat keeps a sliding window of measured (rate, delay) samples —
on the real system these come from first/last-packet timestamps per
slot — fits a low-degree polynomial, and answers "what delay should I
expect if I send at rate r?" for the scheduler's ``E[d_n(f^R(q))]``
term.

:class:`BatchDelayPredictor` holds every seat's window in two
``(N, window)`` arrays and prices a whole ``(N, L)`` slot menu with
one Horner sweep; the edge server keeps its seats here.
:class:`PolynomialDelayPredictor` is the one-seat view over the same
class, so the fit and the sweep exist once.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


def _check_samples(rates: np.ndarray, delays: np.ndarray) -> None:
    """Refuse NaN, infinite or negative samples.

    A non-finite sample would make every prediction NaN until it left
    the window.
    """
    for name, values in (("rate", rates), ("delay", delays)):
        bad = ~(np.isfinite(values) & (values >= 0))
        if bad.any():
            raise ConfigurationError(
                f"{name} must be finite and non-negative, "
                f"got {values[bad][0].item()}"
            )


class BatchDelayPredictor:
    """Every seat's sliding-window polynomial fit of delay on rate.

    Seats are addressed by index ``0..num_users-1``.  Each seat's
    samples live in one row of a rate ring and a delay ring, read
    oldest-first; its fitted polynomial is one row of a coefficient
    matrix, refit only after the seat observed a sample.

    Parameters
    ----------
    num_users:
        Number of seats.
    degree:
        Polynomial degree; 2 captures the convex bend of the measured
        RTT curve (Fig. 1b) without overfitting.
    window:
        Number of recent samples retained per seat.
    min_samples:
        Below this count a seat answers with the mean observed delay
        (or ``fallback_delay`` when empty) instead of fitting.
    fallback_delay:
        Prediction before any data arrives.
    """

    def __init__(
        self,
        num_users: int,
        degree: int = 2,
        window: int = 120,
        min_samples: int = 8,
        fallback_delay: float = 0.5,
    ) -> None:
        if num_users < 1:
            raise ConfigurationError(f"num_users must be >= 1, got {num_users}")
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
        self.num_users = num_users
        self.degree = degree
        self.window = window
        self.min_samples = min_samples
        self.fallback_delay = fallback_delay
        self._rates = np.zeros((num_users, window))
        self._delays = np.zeros((num_users, window))
        # The ring slot each seat writes next, and its window fill.
        self._heads = np.zeros(num_users, dtype=np.int64)
        self._counts = np.zeros(num_users, dtype=np.int64)
        # Highest power first, as np.polyfit returns them, padded with
        # leading zeros; the window mean and the fallback are constant
        # polynomials.
        self._coeffs = np.zeros((num_users, degree + 1))
        self._coeffs[:, -1] = fallback_delay
        self._dirty = np.zeros(num_users, dtype=bool)

    @property
    def num_samples(self) -> np.ndarray:
        """Window fill per seat (capped at ``window``)."""
        return self._counts.copy()

    def _check_user(self, user: int) -> None:
        if not 0 <= user < self.num_users:
            raise ConfigurationError(
                f"user index must be in [0, {self.num_users}), got {user}"
            )

    def observe(
        self,
        users: Sequence[int],
        rates_mbps: Sequence[float],
        delays: Sequence[float],
    ) -> None:
        """Record one measured (sending rate, delay) pair per listed seat.

        Each seat appears at most once; a bad sample refuses the call
        before any seat's window changes.
        """
        seats = np.asarray(users, dtype=np.int64)
        rates = np.asarray(rates_mbps, dtype=float)
        values = np.asarray(delays, dtype=float)
        if seats.ndim != 1 or not seats.shape == rates.shape == values.shape:
            raise ConfigurationError(
                "users, rates and delays must be equal-length sequences"
            )
        if seats.size == 0:
            return
        if seats.min() < 0 or seats.max() >= self.num_users:
            raise ConfigurationError(
                f"user indices must be in [0, {self.num_users}), got {users!r}"
            )
        if len(set(seats.tolist())) != seats.size:
            raise ConfigurationError(f"each seat observes once, got {users!r}")
        _check_samples(rates, values)
        heads = self._heads[seats]
        self._rates[seats, heads] = rates
        self._delays[seats, heads] = values
        self._heads[seats] = (heads + 1) % self.window
        self._counts[seats] = np.minimum(self._counts[seats] + 1, self.window)
        self._dirty[seats] = True

    def _window(self, user: int) -> Tuple[np.ndarray, np.ndarray]:
        """One seat's (rates, delays), oldest first."""
        head = int(self._heads[user])
        order = np.arange(head - int(self._counts[user]), head) % self.window
        return self._rates[user, order], self._delays[user, order]

    def export_user(self, user: int) -> List[List[float]]:
        """One seat's ``[rate, delay]`` samples (oldest first)."""
        self._check_user(user)
        return np.stack(self._window(user), axis=1).tolist()

    def restore_user(self, user: int, samples: Sequence[Sequence[float]]) -> None:
        """Rebuild one seat's window from :meth:`export_user` output.

        The window holds the same samples in the same order, so the
        refit coefficients — hence every later prediction — are
        bit-identical to the original seat's.  A bad sample refuses
        the call before the seat changes.
        """
        self._check_user(user)
        try:
            pairs = np.asarray(samples, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"samples must be (rate, delay) pairs: {exc}"
            ) from exc
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ConfigurationError(
                f"samples must be (rate, delay) pairs, got shape {pairs.shape}"
            )
        _check_samples(pairs[:, 0], pairs[:, 1])
        kept = pairs[-self.window:]
        self._rates[user, : len(kept)] = kept[:, 0]
        self._delays[user, : len(kept)] = kept[:, 1]
        self._heads[user] = len(kept) % self.window
        self._counts[user] = len(kept)
        self._dirty[user] = True

    def reset_user(self, user: int) -> None:
        """Forget one seat's samples (seat reuse)."""
        self._check_user(user)
        self._heads[user] = 0
        self._counts[user] = 0
        self._dirty[user] = True

    def reset(self) -> None:
        """Forget every seat's samples."""
        self._heads[:] = 0
        self._counts[:] = 0
        self._dirty[:] = True

    def _fit(self, user: int) -> np.ndarray:
        """One seat's padded coefficient row from its current window."""
        row = np.zeros(self.degree + 1)
        count = int(self._counts[user])
        if count == 0:
            row[-1] = self.fallback_delay
            return row
        rates, delays = self._window(user)
        degree = 0
        if count >= self.min_samples:
            # A window of near-identical rates makes the Vandermonde
            # matrix rank deficient; degrade the fit degree to what the
            # data supports instead of emitting garbage coefficients.
            # (A set, not ``np.unique``: that would import ``numpy.ma``
            # mid-slot.)
            distinct = len(set(np.round(rates, 6).tolist()))
            degree = min(self.degree, max(distinct - 1, 0))
        if degree == 0:
            row[-1] = float(delays.mean())
        else:
            row[self.degree - degree:] = np.polyfit(rates, delays, degree)
        return row

    def delays(self, sizes: Sequence[Sequence[float]]) -> np.ndarray:
        """``(num_users, L)`` expected delay of sending ``sizes[n][k]``.

        Seats that observed a sample since their last fit are refit
        first; then one Horner sweep prices every seat and level.
        Never negative.
        """
        rates = np.asarray(sizes, dtype=float)
        if rates.ndim != 2 or rates.shape[0] != self.num_users:
            raise ConfigurationError(
                f"sizes must be ({self.num_users}, L), got shape {rates.shape}"
            )
        if not (np.isfinite(rates).all() and (rates >= 0).all()):
            raise ConfigurationError("rates must be finite and non-negative")
        for user in np.flatnonzero(self._dirty).tolist():
            self._coeffs[user] = self._fit(user)
        self._dirty[:] = False
        # Horner's rule from 0.0, one multiply and one add per power:
        # the same rounding sequence as ``value * rate + coeff`` in
        # Python floats, so every entry equals the scalar sweep's.
        out = np.zeros(rates.shape)
        for power in range(self.degree + 1):
            out *= rates
            out += self._coeffs[:, power, None]
        # max(value, 0.0) as Python computes it: a -0.0 stays -0.0
        # (np.maximum would turn it into 0.0).
        np.copyto(out, 0.0, where=out < 0.0)
        return out


class PolynomialDelayPredictor:
    """One seat's sliding-window polynomial fit of delay on rate.

    A one-seat view over :class:`BatchDelayPredictor`; the parameters
    are the same.
    """

    def __init__(
        self,
        degree: int = 2,
        window: int = 120,
        min_samples: int = 8,
        fallback_delay: float = 0.5,
    ) -> None:
        self._seat = BatchDelayPredictor(
            1,
            degree=degree,
            window=window,
            min_samples=min_samples,
            fallback_delay=fallback_delay,
        )

    @property
    def degree(self) -> int:
        return self._seat.degree

    @property
    def min_samples(self) -> int:
        return self._seat.min_samples

    @property
    def fallback_delay(self) -> float:
        return self._seat.fallback_delay

    @property
    def num_samples(self) -> int:
        return int(self._seat.num_samples[0])

    def observe(self, rate_mbps: float, delay: float) -> None:
        """Record one measured (sending rate, delay) pair."""
        self._seat.observe([0], [rate_mbps], [delay])

    def predict(self, rate_mbps: float) -> float:
        """Expected delay at the given sending rate (never negative)."""
        if rate_mbps < 0:
            raise ConfigurationError(f"rate must be non-negative, got {rate_mbps}")
        return float(self._seat.delays([[rate_mbps]])[0, 0])

    def reset(self) -> None:
        self._seat.reset()

    def export_state(self) -> Tuple[Tuple[float, float], ...]:
        """The (rate, delay) sample window (oldest first)."""
        return tuple((rate, delay) for rate, delay in self._seat.export_user(0))

    def restore_state(self, samples: Sequence[Tuple[float, float]]) -> None:
        """Rebuild the sample window from :meth:`export_state` output."""
        self._seat.restore_user(0, samples)

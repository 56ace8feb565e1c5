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
one Horner sweep; the edge server keeps its seats here.  It refits
every seat that observed a sample since its last fit with one stacked
least-squares fit, :func:`fit_polynomials`: the normal equations of
each window, on centred and scaled rates, solved by elimination in
elementwise numpy.  No LAPACK routine (``np.polyfit``,
``np.linalg``) runs on the serving path.
:class:`PolynomialDelayPredictor` is the one-seat view over the same
class, so the fit and the sweep exist once.
"""

from __future__ import annotations

import math
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


def fit_polynomials(
    rates: np.ndarray, delays: np.ndarray, counts: np.ndarray, degree: int
) -> np.ndarray:
    """Least-squares polynomials of ``degree``, one per row of samples.

    Row ``d`` holds its samples in the first ``counts[d]`` entries of
    ``rates[d]`` and ``delays[d]`` (``(D, W)`` arrays); the rest is
    ignored, so partly filled windows need no ragged rows.  Each row
    must hold at least ``degree + 1`` distinct rates.  Returns the
    ``(D, degree + 1)`` raw-power coefficients, highest power first,
    as ``np.polyfit`` orders them.

    Each row's rates are centred and scaled onto ``[-1, 1]`` (the
    midrange and half-range of its samples), so the ``degree + 1``
    normal equations stay well conditioned; their entries are
    sequential sums over the samples, which trailing padding cannot
    change, and they are solved by elimination in elementwise numpy.
    No LAPACK routine runs.
    """
    rows, width = rates.shape
    live = np.arange(width) < counts[:, None]
    lo = np.where(live, rates, np.inf).min(axis=1)
    hi = np.where(live, rates, -np.inf).max(axis=1)
    mid = (lo + hi) * 0.5
    half = (hi - lo) * 0.5
    # Samples along the first axis, so the running sums below add
    # whole rows of seats at a time.
    z = rates - mid[:, None]
    z /= half[:, None]
    z[~live] = 0.0
    z = z.T
    term = np.where(live, delays, 0.0).T
    last, columns = counts - 1, np.arange(rows)
    work = np.empty_like(term)

    def total(values: np.ndarray) -> np.ndarray:
        # Each row's samples summed left to right, read at its last
        # sample, so trailing padding cannot change the sum.
        return np.add.accumulate(values, axis=0, out=work)[last, columns]

    # Moments y*z**k (k = 0..degree), then power sums z**k (k =
    # 1..2*degree).
    sums = np.empty((3 * degree + 1, rows))
    for k in range(degree + 1):
        sums[2 * degree + k] = total(term)
        term *= z
    np.copyto(term, z)
    for k in range(2 * degree):
        sums[k] = total(term)
        term *= z
    powers = np.concatenate([counts[None].astype(float), sums[: 2 * degree]])
    size = degree + 1
    # The Gram matrix of 1, z, .., z**degree is symmetric positive
    # definite: eliminate without pivoting, then substitute back.
    gram = powers[np.add.outer(np.arange(size), np.arange(size))].transpose(2, 0, 1)
    rhs = sums[2 * degree :].T
    for i in range(size):
        for r in range(i + 1, size):
            factor = gram[:, r, i] / gram[:, i, i]
            gram[:, r, i:] -= factor[:, None] * gram[:, i, i:]
            rhs[:, r] -= factor * rhs[:, i]
    scaled = np.empty((rows, size))
    for i in reversed(range(size)):
        known = (gram[:, i, i + 1 :] * scaled[:, i + 1 :]).sum(axis=1)
        scaled[:, i] = (rhs[:, i] - known) / gram[:, i, i]
    # sum_j c_j ((x - mid) / half)**j in raw powers of x.
    raw = np.zeros((rows, size))
    shift = -mid
    for j in range(size):
        coeff = scaled[:, j] / half**j
        for k in range(j + 1):
            raw[:, k] += coeff * math.comb(j, k) * shift ** (j - k)
    return raw[:, ::-1]


class BatchDelayPredictor:
    """Every seat's sliding-window polynomial fit of delay on rate.

    Seats are addressed by index ``0..num_users-1``.  Each seat's
    samples live in one row of a rate ring and a delay ring, read
    oldest-first; its fitted polynomial is one row of a coefficient
    matrix, refit only after the seat observed a sample.  The next
    :meth:`delays` call refits all such seats together: their windows
    are gathered as ``(D, window)`` arrays and fitted by
    :func:`fit_polynomials`, one call per fit degree.

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
        # Highest power first, as np.polyfit orders them, padded with
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

    def _windows(self, users: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The listed seats' ``(rates, delays)`` as ``(D, window)`` rows.

        Row ``d`` holds seat ``users[d]``'s window oldest first in its
        first ``num_samples`` entries, then whatever the ring holds
        past them.
        """
        order = self._heads[users, None] - self._counts[users, None]
        order = (order + np.arange(self.window)) % self.window
        seats = users[:, None]
        return self._rates[seats, order], self._delays[seats, order]

    def export_user(self, user: int) -> List[List[float]]:
        """One seat's ``[rate, delay]`` samples (oldest first)."""
        self._check_user(user)
        rates, delays = self._windows(np.array([user]))
        count = int(self._counts[user])
        return np.stack((rates[0, :count], delays[0, :count]), axis=1).tolist()

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

    def _fit_degrees(self, rates: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Each window's fit degree; 0 answers the window mean.

        A window of near-identical rates makes the Vandermonde matrix
        rank deficient, so the degree is what the data supports:
        distinct rates at six decimals, less one, capped at
        ``degree``.  Below ``min_samples`` it is 0.  (Sorted rows, not
        ``np.unique``: that would import ``numpy.ma`` mid-slot.)
        """
        live = np.arange(self.window) < counts[:, None]
        ranked = np.where(live, rates, np.inf)
        np.round(ranked, 6, out=ranked)
        ranked.sort(axis=1)
        distinct = 1 + ((ranked[:, 1:] != ranked[:, :-1]) & live[:, 1:]).sum(axis=1)
        return np.where(
            counts >= self.min_samples, np.minimum(distinct - 1, self.degree), 0
        )

    def _refit(self, users: np.ndarray) -> None:
        """Refit the listed seats' coefficient rows from their windows."""
        counts = self._counts[users]
        rates, delays = self._windows(users)
        degrees = self._fit_degrees(rates, counts)
        self._coeffs[users] = 0.0
        for degree in range(1, self.degree + 1):
            rows = np.flatnonzero(degrees == degree)
            if rows.size:
                self._coeffs[users[rows], self.degree - degree:] = fit_polynomials(
                    rates[rows], delays[rows], counts[rows], degree
                )
        # Constant rows: the window mean (as ``np.mean`` sums a row of
        # that length) and, for an empty seat, the fallback.
        means = np.flatnonzero(degrees == 0)
        for count in set(counts[means].tolist()):
            rows = means[counts[means] == count]
            if count == 0:
                self._coeffs[users[rows], -1] = self.fallback_delay
            else:
                self._coeffs[users[rows], -1] = delays[rows, :count].mean(axis=1)

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
        dirty = np.flatnonzero(self._dirty)
        if dirty.size:
            self._refit(dirty)
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

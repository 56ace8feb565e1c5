"""The QoE definition of Section II.

For user ``n`` over a horizon ``T``::

    QoE_n(T) = sum_t ( q_n(t) 1_n(t)  -  alpha * d_n(f(q_n(t)))  -  beta * sigma_n^2(T) )

i.e. total successfully-viewed quality, minus the weighted total
delivery delay, minus ``beta * T`` times the variance of the viewed
quality.  :class:`UserQoELedger` accumulates one user's realized
history and evaluates every component; :func:`system_qoe` sums over
users (eq. (1)).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class QoEWeights:
    """The trade-off weights ``alpha`` (delay) and ``beta`` (variance).

    Section II: a larger ``alpha`` suits delay-sensitive applications
    (multi-user gaming); a larger ``beta`` suits consistency-sensitive
    ones (museum touring).
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ConfigurationError(f"alpha must be non-negative, got {self.alpha}")
        if self.beta < 0:
            raise ConfigurationError(f"beta must be non-negative, got {self.beta}")

    @classmethod
    def simulation_defaults(cls) -> "QoEWeights":
        """alpha=0.02, beta=0.5 — the Section IV simulation setting."""
        return cls(0.02, 0.5)

    @classmethod
    def system_defaults(cls) -> "QoEWeights":
        """alpha=0.1, beta=0.5 — the Section VI real-system setting."""
        return cls(0.1, 0.5)


class UserQoELedger:
    """Realized per-slot history of one user and its QoE components.

    Record each slot with :meth:`record`; query components at any
    horizon.  The ledger stores the *viewed* quality
    ``q_n(t) * 1_n(t)`` per slot plus the delivery delay, which is all
    the QoE definition needs.  The three series are packed arrays of
    machine doubles and 64-bit ints, since a seat appends to them every
    slot for the whole session.
    """

    def __init__(self) -> None:
        self._viewed = array("d")
        self._levels = array("q")
        self._delays = array("d")
        # Running sums keep mean/variance O(1) per query.
        self._sum_viewed = 0.0
        self._sum_viewed_sq = 0.0
        self._sum_delay = 0.0

    def record(self, level: int, indicator: int, delay: float) -> None:
        """Append one slot: allocated level, coverage 1_n(t), delay.

        ``level`` 0 means the slot was skipped (nothing delivered);
        the indicator is then forced to 0 and the delay must be 0.
        """
        if level < 0:
            raise ConfigurationError(f"level must be non-negative, got {level}")
        if indicator not in (0, 1):
            raise ConfigurationError(f"indicator must be 0 or 1, got {indicator}")
        if delay < 0:
            raise ConfigurationError(f"delay must be non-negative, got {delay}")
        if level == 0:
            indicator = 0
            if delay != 0:
                raise ConfigurationError("a skipped slot cannot incur delivery delay")
        viewed = float(level * indicator)
        self._viewed.append(viewed)
        self._levels.append(level)
        self._delays.append(delay)
        self._sum_viewed += viewed
        self._sum_viewed_sq += viewed * viewed
        self._sum_delay += delay

    @property
    def horizon(self) -> int:
        """Number of recorded slots ``T``."""
        return len(self._viewed)

    @property
    def viewed_qualities(self) -> Sequence[float]:
        """The per-slot ``q_n(t) * 1_n(t)`` series."""
        return tuple(self._viewed)

    @property
    def allocated_levels(self) -> Sequence[int]:
        return tuple(self._levels)

    @property
    def delays(self) -> Sequence[float]:
        return tuple(self._delays)

    def mean_viewed_quality(self) -> float:
        """``q_bar_n(T)``: mean successfully-viewed quality (0 if empty)."""
        return self._sum_viewed / self.horizon if self.horizon else 0.0

    def mean_allocated_level(self) -> float:
        """Mean of the allocated (not necessarily viewed) levels."""
        return sum(self._levels) / self.horizon if self.horizon else 0.0

    def mean_delay(self) -> float:
        """Average delivery delay per slot."""
        return self._sum_delay / self.horizon if self.horizon else 0.0

    def quality_variance(self) -> float:
        """``sigma_n^2(T)``: population variance of viewed quality."""
        t = self.horizon
        if t == 0:
            return 0.0
        mean = self._sum_viewed / t
        return max(self._sum_viewed_sq / t - mean * mean, 0.0)

    def qoe(self, weights: QoEWeights) -> float:
        """``QoE_n(T)`` per the Section II definition (realized)."""
        t = self.horizon
        if t == 0:
            return 0.0
        return (
            self._sum_viewed
            - weights.alpha * self._sum_delay
            - weights.beta * t * self.quality_variance()
        )

    def qoe_per_slot(self, weights: QoEWeights) -> float:
        """``QoE_n(T) / T`` — the per-slot average used in the figures."""
        t = self.horizon
        return self.qoe(weights) / t if t else 0.0

    def reset(self) -> None:
        self.__init__()

    def export_state(self) -> Tuple[Tuple[int, int, float], ...]:
        """The per-slot history as ``(level, indicator, delay)`` rows.

        The indicator is recovered from the stored viewed quality
        (``viewed = level * indicator``, so it is 1 exactly when the
        slot's viewed quality is positive) — together the rows are a
        lossless transcript of every :meth:`record` call.
        """
        return tuple(
            (level, 1 if viewed > 0 else 0, delay)
            for level, viewed, delay in zip(
                self._levels, self._viewed, self._delays
            )
        )

    def restore_state(
        self, rows: Sequence[Tuple[int, int, float]]
    ) -> None:
        """Rebuild the ledger from :meth:`export_state` output.

        Replays the rows through :meth:`record`, so the running sums
        — hence mean, variance, and QoE at any horizon — match the
        original ledger bit-for-bit (the migration handoff's variance
        accumulators survive the transfer).
        """
        self.reset()
        for level, indicator, delay in rows:
            self.record(int(level), int(indicator), float(delay))


def system_qoe(ledgers: Sequence[UserQoELedger], weights: QoEWeights) -> float:
    """``QoE(T) = sum_n QoE_n(T)`` — the objective (1) of the paper."""
    return sum(ledger.qoe(weights) for ledger in ledgers)

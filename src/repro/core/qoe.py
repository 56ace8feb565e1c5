"""The QoE definition of Section II.

For user ``n`` over a horizon ``T``::

    QoE_n(T) = sum_t ( q_n(t) 1_n(t)  -  alpha * d_n(f(q_n(t)))  -  beta * sigma_n^2(T) )

i.e. total successfully-viewed quality, minus the weighted total
delivery delay, minus ``beta * T`` times the variance of the viewed
quality.  :class:`UserQoELedger` keeps one user's running sums and
evaluates every component from them; :func:`system_qoe` sums over
users (eq. (1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Union

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
    """Running QoE accumulators of one user.

    Record each slot with :meth:`record`; query components at any
    horizon.  The QoE definition needs only running sums of the
    *viewed* quality ``q_n(t) * 1_n(t)``, of its square and of the
    delivery delay, plus the horizon and the sum of allocated levels,
    so the ledger keeps those five numbers and no per-slot history:
    its size is the same after one slot and after a whole session.
    """

    __slots__ = (
        "_horizon", "_sum_levels", "_sum_viewed", "_sum_viewed_sq", "_sum_delay",
    )

    def __init__(self) -> None:
        self._horizon = 0
        self._sum_levels = 0
        self._sum_viewed = 0.0
        self._sum_viewed_sq = 0.0
        self._sum_delay = 0.0

    def record(self, level: int, indicator: int, delay: float) -> None:
        """Fold one slot: allocated level, coverage 1_n(t), delay.

        ``level`` 0 means the slot was skipped (nothing delivered);
        the indicator is then forced to 0 and the delay must be 0.
        """
        if level < 0:
            raise ConfigurationError(f"level must be non-negative, got {level}")
        if indicator not in (0, 1):
            raise ConfigurationError(f"indicator must be 0 or 1, got {indicator}")
        if not 0 <= delay < math.inf:  # False for NaN
            raise ConfigurationError(
                f"delay must be finite and non-negative, got {delay}"
            )
        if level == 0:
            indicator = 0
            if delay != 0:
                raise ConfigurationError("a skipped slot cannot incur delivery delay")
        viewed = float(level * indicator)
        self._horizon += 1
        self._sum_levels += level
        self._sum_viewed += viewed
        self._sum_viewed_sq += viewed * viewed
        self._sum_delay += delay

    @property
    def horizon(self) -> int:
        """Number of recorded slots ``T``."""
        return self._horizon

    def mean_viewed_quality(self) -> float:
        """``q_bar_n(T)``: mean successfully-viewed quality (0 if empty)."""
        return self._sum_viewed / self._horizon if self._horizon else 0.0

    def mean_allocated_level(self) -> float:
        """Mean of the allocated (not necessarily viewed) levels."""
        return self._sum_levels / self._horizon if self._horizon else 0.0

    def mean_delay(self) -> float:
        """Average delivery delay per slot."""
        return self._sum_delay / self._horizon if self._horizon else 0.0

    def quality_variance(self) -> float:
        """``sigma_n^2(T)``: population variance of viewed quality."""
        t = self._horizon
        if t == 0:
            return 0.0
        mean = self._sum_viewed / t
        return max(self._sum_viewed_sq / t - mean * mean, 0.0)

    def qoe(self, weights: QoEWeights) -> float:
        """``QoE_n(T)`` per the Section II definition (realized)."""
        t = self._horizon
        if t == 0:
            return 0.0
        return (
            self._sum_viewed
            - weights.alpha * self._sum_delay
            - weights.beta * t * self.quality_variance()
        )

    def qoe_per_slot(self, weights: QoEWeights) -> float:
        """``QoE_n(T) / T`` — the per-slot average used in the figures."""
        t = self._horizon
        return self.qoe(weights) / t if t else 0.0

    def reset(self) -> None:
        self.__init__()

    def export_state(self) -> Dict[str, Union[int, float]]:
        """The five accumulators as a JSON-friendly dict."""
        return {
            "horizon": self._horizon,
            "sum_levels": self._sum_levels,
            "sum_viewed": self._sum_viewed,
            "sum_viewed_sq": self._sum_viewed_sq,
            "sum_delay": self._sum_delay,
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Reinstate the accumulators from :meth:`export_state` output.

        The sums are copied, not recomputed, so mean, variance and QoE
        match the original ledger bit-for-bit.  Every field is checked
        before any is set, so a refused state leaves the ledger as it
        was.  The state may come from JSON, which admits NaN and
        Infinity.
        """
        horizon = _count(state, "horizon")
        sum_levels = _count(state, "sum_levels")
        sum_viewed = _sum(state, "sum_viewed")
        sum_viewed_sq = _sum(state, "sum_viewed_sq")
        sum_delay = _sum(state, "sum_delay")
        if horizon == 0 and (sum_levels or sum_viewed or sum_viewed_sq or sum_delay):
            raise ConfigurationError(
                "an empty ledger state (horizon 0) must have zero sums"
            )
        if sum_viewed > sum_levels:
            raise ConfigurationError(
                f"ledger state sum_viewed {sum_viewed!r} exceeds "
                f"sum_levels {sum_levels}"
            )
        self._horizon = horizon
        self._sum_levels = sum_levels
        self._sum_viewed = sum_viewed
        self._sum_viewed_sq = sum_viewed_sq
        self._sum_delay = sum_delay


def _count(state: Mapping[str, object], key: str) -> int:
    value = state.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigurationError(
            f"ledger state {key!r} must be an int >= 0, got {value!r}"
        )
    return value


def _sum(state: Mapping[str, object], key: str) -> float:
    value = state.get(key)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0 <= value < math.inf  # False for NaN
    ):
        raise ConfigurationError(
            f"ledger state {key!r} must be a finite number >= 0, got {value!r}"
        )
    return float(value)


def system_qoe(ledgers: Sequence[UserQoELedger], weights: QoEWeights) -> float:
    """``QoE(T) = sum_n QoE_n(T)`` — the objective (1) of the paper."""
    return sum(ledger.qoe(weights) for ledger in ledgers)

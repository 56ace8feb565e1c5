"""Synthetic network throughput traces.

Section IV of the paper: half of the per-user traces come from the
FCC fixed-broadband dataset ("Web browsing" category, March 2021) and
half from the Ghent 4G/LTE dataset; every trace is cut to 300 seconds
and clamped into 20-100 Mbps; each throughput point "usually lasts
for several seconds".

The two generator classes below reproduce those statistical shapes:

* :class:`FccWebBrowsingModel` — fixed-line broadband: a stable base
  rate per trace (the subscribed tier), long holds, mild noise, and
  occasional short congestion dips.
* :class:`LteMobilityModel` — mobile LTE: a hidden mobility state
  (still / walking / driving) modulating the mean, shorter holds,
  log-normal fading, and handover drops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, TraceError
from repro.units import TRACE_LENGTH_S, TRACE_MAX_MBPS, TRACE_MIN_MBPS


@dataclass(frozen=True)
class TraceSegment:
    """A constant-rate stretch of a network trace."""

    duration_s: float
    mbps: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"segment duration must be positive, got {self.duration_s}"
            )
        if self.mbps < 0:
            raise ConfigurationError(f"segment rate must be >= 0, got {self.mbps}")


class NetworkTrace:
    """An immutable piecewise-constant throughput series."""

    def __init__(self, segments: Sequence[TraceSegment], name: str = "") -> None:
        if not segments:
            raise TraceError("a network trace needs at least one segment")
        self._segments: Tuple[TraceSegment, ...] = tuple(segments)
        self.name = name
        self._boundaries = np.cumsum([s.duration_s for s in self._segments])

    @property
    def segments(self) -> Tuple[TraceSegment, ...]:
        return self._segments

    @property
    def duration_s(self) -> float:
        return float(self._boundaries[-1])

    def to_slots(self, slot_s: float) -> np.ndarray:
        """Per-slot rates; consecutive slots share a segment's rate.

        This is the expansion rule of Section IV: the trace's
        multi-second points are far longer than a slot, so "multiple
        continuous slots share the same bandwidth until their
        cumulative time reaches the trace's duration".
        """
        if slot_s <= 0:
            raise ConfigurationError(f"slot duration must be positive, got {slot_s}")
        num_slots = int(self.duration_s / slot_s)
        rates = np.empty(num_slots, dtype=float)
        seg_idx = 0
        for slot in range(num_slots):
            t = slot * slot_s
            while t >= self._boundaries[seg_idx]:
                seg_idx += 1
            rates[slot] = self._segments[seg_idx].mbps
        return rates

    def clamped(self, lo: float = TRACE_MIN_MBPS, hi: float = TRACE_MAX_MBPS) -> "NetworkTrace":
        """Copy with every rate clamped into ``[lo, hi]`` (Section IV)."""
        if lo > hi:
            raise ConfigurationError(f"invalid clamp range [{lo}, {hi}]")
        return NetworkTrace(
            [TraceSegment(s.duration_s, min(max(s.mbps, lo), hi)) for s in self._segments],
            name=self.name,
        )


class FccWebBrowsingModel:
    """Synthetic fixed-broadband traces in the FCC dataset's regime.

    Each trace draws a subscribed tier; throughput holds near the tier
    for several seconds at a time with small log-normal noise, and
    occasionally dips (cross-traffic) for a short stretch.
    """

    #: Representative subscribed tiers (Mbps) spanning the clamp range.
    TIERS: Tuple[float, ...] = (25.0, 50.0, 75.0, 100.0)

    def __init__(
        self,
        hold_range_s: Tuple[float, float] = (3.0, 10.0),
        dip_probability: float = 0.08,
        dip_factor_range: Tuple[float, float] = (0.3, 0.7),
        noise_sigma: float = 0.06,
    ) -> None:
        if hold_range_s[0] <= 0 or hold_range_s[1] < hold_range_s[0]:
            raise ConfigurationError(f"invalid hold range {hold_range_s}")
        if not 0 <= dip_probability <= 1:
            raise ConfigurationError(
                f"dip probability must be in [0, 1], got {dip_probability}"
            )
        self.hold_range_s = hold_range_s
        self.dip_probability = dip_probability
        self.dip_factor_range = dip_factor_range
        self.noise_sigma = noise_sigma

    def generate(
        self,
        rng: np.random.Generator,
        duration_s: float = TRACE_LENGTH_S,
        name: str = "fcc",
    ) -> NetworkTrace:
        """Generate one clamped trace of the requested duration."""
        if duration_s <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration_s}")
        tier = float(rng.choice(self.TIERS))
        segments: List[TraceSegment] = []
        elapsed = 0.0
        while elapsed < duration_s:
            hold = float(rng.uniform(*self.hold_range_s))
            hold = min(hold, duration_s - elapsed)
            rate = tier * float(np.exp(rng.normal(0.0, self.noise_sigma)))
            if rng.uniform() < self.dip_probability:
                rate *= float(rng.uniform(*self.dip_factor_range))
            segments.append(TraceSegment(hold, rate))
            elapsed += hold
        return NetworkTrace(segments, name=name).clamped()


class LteMobilityModel:
    """Synthetic 4G/LTE traces in the Ghent dataset's regime.

    A hidden mobility state (still / walking / driving) sets the mean
    rate and volatility; rates fade log-normally around the state mean
    and occasionally collapse during handovers.
    """

    #: (mean Mbps, log-sigma, mean hold s) per mobility state.
    STATES: Tuple[Tuple[float, float, float], ...] = (
        (80.0, 0.15, 4.0),  # still
        (55.0, 0.30, 2.5),  # walking
        (35.0, 0.45, 1.5),  # driving
    )

    #: Probability of staying in the current state at each segment.
    STATE_PERSISTENCE: float = 0.85

    def __init__(self, handover_probability: float = 0.05, handover_factor: float = 0.25) -> None:
        if not 0 <= handover_probability <= 1:
            raise ConfigurationError(
                f"handover probability must be in [0, 1], got {handover_probability}"
            )
        self.handover_probability = handover_probability
        self.handover_factor = handover_factor

    def generate(
        self,
        rng: np.random.Generator,
        duration_s: float = TRACE_LENGTH_S,
        name: str = "lte",
    ) -> NetworkTrace:
        """Generate one clamped trace of the requested duration."""
        if duration_s <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration_s}")
        state = int(rng.integers(len(self.STATES)))
        segments: List[TraceSegment] = []
        elapsed = 0.0
        while elapsed < duration_s:
            mean, sigma, mean_hold = self.STATES[state]
            hold = float(rng.exponential(mean_hold) + 0.5)
            hold = min(hold, duration_s - elapsed)
            rate = mean * float(np.exp(rng.normal(0.0, sigma)))
            if rng.uniform() < self.handover_probability:
                rate *= self.handover_factor
            segments.append(TraceSegment(hold, rate))
            elapsed += hold
            if rng.uniform() > self.STATE_PERSISTENCE:
                state = int(rng.integers(len(self.STATES)))
        return NetworkTrace(segments, name=name).clamped()


class TraceCatalog:
    """The paper's half-FCC / half-LTE per-user trace pool.

    Section IV: "We randomly generate half of the requested traces
    from the 'Web browsing' category of the FCC dataset ... The other
    half of the requested traces are generated from Ghent's dataset."
    The small Ghent pool is reused across users, which the catalog
    mirrors by drawing LTE traces from a limited pool of seeds.
    """

    def __init__(
        self,
        seed: int = 0,
        duration_s: float = TRACE_LENGTH_S,
        lte_pool_size: int = 40,
        fcc_model: Optional[FccWebBrowsingModel] = None,
        lte_model: Optional[LteMobilityModel] = None,
    ) -> None:
        if lte_pool_size < 1:
            raise ConfigurationError(
                f"lte_pool_size must be >= 1, got {lte_pool_size}"
            )
        self.seed = seed
        self.duration_s = duration_s
        self.lte_pool_size = lte_pool_size
        self.fcc_model = fcc_model or FccWebBrowsingModel()
        self.lte_model = lte_model or LteMobilityModel()

    def trace_for(self, user: int, episode: int = 0) -> NetworkTrace:
        """Deterministic trace for a (user, episode) pair.

        Even users draw fresh FCC traces; odd users draw from the
        finite, reused LTE pool (the Ghent dataset has only 40 logs).
        """
        if user < 0 or episode < 0:
            raise ConfigurationError("user and episode must be non-negative")
        if user % 2 == 0:
            rng = np.random.default_rng((self.seed, 1, user, episode))
            return self.fcc_model.generate(rng, self.duration_s, name=f"fcc-u{user}-e{episode}")
        pool_slot = (user * 131 + episode * 17) % self.lte_pool_size
        rng = np.random.default_rng((self.seed, 2, pool_slot))
        return self.lte_model.generate(rng, self.duration_s, name=f"lte-pool{pool_slot}")

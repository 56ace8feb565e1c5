"""Network emulation: throttles, routers, fading, interference.

Section VI of the paper: every phone is throttled by Linux TC to one
of five guidelines (40-60 Mbps), all phones share one 802.11ac router
(setup 1) or two bridged routers (setup 2), and "the actual throughput
varies with time under the wireless network"; with two routers "the
variance of the bandwidth capacity is even larger ... due to the
possible wireless interference".

The emulation reproduces those effects per slot:

* :class:`ThrottledLink` — a TC guideline modulated by an
  Ornstein-Uhlenbeck fading factor (Wi-Fi rate adaptation);
* :class:`Router` — a shared medium with max-min fair sharing among
  the flows transmitting in a slot, plus a contention efficiency loss
  that grows with the number of active flows;
* :class:`InterferenceField` — correlated capacity collapses that
  strike *both* routers when two share the spectrum (the setup-2
  variance amplifier).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError

_EPS = 1e-9


def max_min_fair_share(
    demands: Sequence[float],
    caps: Sequence[float],
    capacity: float,
) -> List[float]:
    """Max-min fair rate allocation on a shared link.

    Each flow ``i`` receives at most ``min(demands[i], caps[i])``; the
    total never exceeds ``capacity``.  Water-filling: repeatedly give
    every unfrozen flow an equal share, freeze flows that need less
    than the share, and redistribute the slack.
    """
    if len(demands) != len(caps):
        raise ConfigurationError("demands and caps must have equal length")
    if capacity < 0:
        raise ConfigurationError(f"capacity must be non-negative, got {capacity}")
    wants = [min(max(d, 0.0), max(c, 0.0)) for d, c in zip(demands, caps)]
    rates = [0.0] * len(wants)
    active = [i for i, w in enumerate(wants) if w > _EPS]
    remaining = capacity
    while active and remaining > _EPS:
        share = remaining / len(active)
        satisfied = [i for i in active if wants[i] - rates[i] <= share + _EPS]
        if satisfied:
            for i in satisfied:
                remaining -= wants[i] - rates[i]
                rates[i] = wants[i]
            active = [i for i in active if i not in set(satisfied)]
        else:
            for i in active:
                rates[i] += share
            remaining = 0.0
    return rates


class FadingProcess:
    """Mean-reverting multiplicative fading factor.

    An Ornstein-Uhlenbeck process around 1.0, clamped to
    ``[floor, ceiling]`` — the slow breathing of a Wi-Fi link's PHY
    rate as the environment changes.
    """

    def __init__(
        self,
        reversion: float = 0.05,
        sigma: float = 0.04,
        floor: float = 0.35,
        ceiling: float = 1.15,
    ) -> None:
        if not 0 < reversion <= 1:
            raise ConfigurationError(f"reversion must be in (0, 1], got {reversion}")
        if sigma < 0:
            raise ConfigurationError(f"sigma must be non-negative, got {sigma}")
        if not 0 < floor <= 1 <= ceiling:
            raise ConfigurationError(
                f"need floor <= 1 <= ceiling, got [{floor}, {ceiling}]"
            )
        self.reversion = reversion
        self.sigma = sigma
        self.floor = floor
        self.ceiling = ceiling
        self._value = 1.0

    @property
    def value(self) -> float:
        return self._value

    def step(self, rng: np.random.Generator) -> float:
        """Advance one slot and return the new factor."""
        self._value += self.reversion * (1.0 - self._value) + float(
            rng.normal(0.0, self.sigma)
        )
        self._value = min(max(self._value, self.floor), self.ceiling)
        return self._value


class ThrottledLink:
    """One user's TC throttle with time-varying effective capacity."""

    def __init__(
        self,
        guideline_mbps: float,
        fading: FadingProcess = None,
    ) -> None:
        if guideline_mbps <= 0:
            raise ConfigurationError(
                f"throttle guideline must be positive, got {guideline_mbps}"
            )
        self.guideline_mbps = guideline_mbps
        self.fading = fading if fading is not None else FadingProcess()
        self._effective = guideline_mbps

    @property
    def effective_mbps(self) -> float:
        """Capacity during the current slot."""
        return self._effective

    def step(self, rng: np.random.Generator) -> float:
        """Advance the fading process one slot."""
        self._effective = self.guideline_mbps * self.fading.step(rng)
        return self._effective


class InterferenceField:
    """Correlated capacity collapses across co-channel routers.

    With probability ``onset_probability`` per slot an interference
    burst begins; it lasts a geometric number of slots and multiplies
    every attached router's capacity by a draw from
    ``severity_range``.  A single router (setup 1) uses a field with
    ``onset_probability = 0``; two bridged routers (setup 2) share one
    active field, which is what makes their joint capacity variance
    larger, as the paper observes.
    """

    def __init__(
        self,
        onset_probability: float = 0.0,
        mean_duration_slots: float = 30.0,
        severity_range=(0.25, 0.6),
    ) -> None:
        if not 0.0 <= onset_probability <= 1.0:
            raise ConfigurationError(
                f"onset probability must be in [0, 1], got {onset_probability}"
            )
        if mean_duration_slots <= 0:
            raise ConfigurationError(
                f"mean duration must be positive, got {mean_duration_slots}"
            )
        lo, hi = severity_range
        if not 0 < lo <= hi <= 1:
            raise ConfigurationError(f"invalid severity range {severity_range}")
        self.onset_probability = onset_probability
        self.mean_duration_slots = mean_duration_slots
        self.severity_range = severity_range
        self._remaining = 0
        self._factor = 1.0

    @property
    def factor(self) -> float:
        """Current multiplicative capacity factor (1.0 = clean air)."""
        return self._factor if self._remaining > 0 else 1.0

    def step(self, rng: np.random.Generator) -> float:
        """Advance one slot and return the factor for this slot."""
        if self._remaining > 0:
            self._remaining -= 1
            if self._remaining == 0:
                self._factor = 1.0
        elif self.onset_probability > 0 and rng.uniform() < self.onset_probability:
            self._remaining = 1 + int(rng.geometric(1.0 / self.mean_duration_slots))
            self._factor = float(rng.uniform(*self.severity_range))
        return self.factor


class Router:
    """A shared wireless medium serving a set of user links.

    Per slot, the router's effective capacity is its nominal capacity
    times its fading factor, times the interference factor, times a
    contention efficiency that decays with the number of active
    flows (CSMA overhead).  Flows then split it max-min fairly,
    individually capped by their TC throttles.
    """

    def __init__(
        self,
        capacity_mbps: float,
        interference: InterferenceField = None,
        fading: FadingProcess = None,
        contention_loss_per_flow: float = 0.015,
        min_efficiency: float = 0.6,
    ) -> None:
        if capacity_mbps <= 0:
            raise ConfigurationError(
                f"router capacity must be positive, got {capacity_mbps}"
            )
        if not 0 <= contention_loss_per_flow < 1:
            raise ConfigurationError(
                f"contention loss must be in [0, 1), got {contention_loss_per_flow}"
            )
        if not 0 < min_efficiency <= 1:
            raise ConfigurationError(
                f"min efficiency must be in (0, 1], got {min_efficiency}"
            )
        self.capacity_mbps = capacity_mbps
        self.interference = interference if interference is not None else InterferenceField()
        self.fading = fading if fading is not None else FadingProcess(sigma=0.02)
        self.contention_loss_per_flow = contention_loss_per_flow
        self.min_efficiency = min_efficiency
        self._slot_capacity = capacity_mbps

    @property
    def slot_capacity_mbps(self) -> float:
        """Capacity available in the current slot (before contention)."""
        return self._slot_capacity

    def step(self, rng: np.random.Generator) -> float:
        """Advance fading and interference one slot."""
        self._slot_capacity = (
            self.capacity_mbps * self.fading.step(rng) * self.interference.step(rng)
        )
        return self._slot_capacity

    def transmit(
        self, demands_mbps: Sequence[float], caps_mbps: Sequence[float]
    ) -> List[float]:
        """Achieved rate per flow for this slot's transmissions."""
        active = sum(1 for d in demands_mbps if d > _EPS)
        efficiency = max(
            1.0 - self.contention_loss_per_flow * max(active - 1, 0),
            self.min_efficiency,
        )
        return max_min_fair_share(
            demands_mbps, caps_mbps, self._slot_capacity * efficiency
        )


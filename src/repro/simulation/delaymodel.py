"""The M/M/1 delivery-delay model (eq. 13 and Fig. 1b).

Section IV generates the delivery delay as::

    d_n(f) = f / (B_n(t) - f)

"This models the delay as that in M/M/1 queueing system ..., which is
usually used to model the queueing delay in wireless transmission."
The delay is dimensionless in slot units (multiply by the slot
duration for seconds) and is convex and increasing in ``f`` for
``f < B`` — the structural property Section II assumes.

:func:`sample_rtts` reproduces the Fig. 1b measurement: a capped link
carries traffic at a given sending rate while parallel pings sample
the round-trip time; the mean RTT versus sending rate is convex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MM1DelayModel:
    """Eq. (13) with a finite saturation guard.

    Parameters
    ----------
    max_delay:
        Value returned once the sending rate reaches (or exceeds) the
        bandwidth, where the ideal formula diverges.  Keeping it
        finite lets objective curves stay well defined while making
        saturated levels catastrophically unattractive.
    """

    max_delay: float = 100.0

    def __post_init__(self) -> None:
        if self.max_delay <= 0:
            raise ConfigurationError(
                f"max_delay must be positive, got {self.max_delay}"
            )

    def delay(self, rate_mbps: float, bandwidth_mbps: float) -> float:
        """``d(f) = f / (B - f)``, clipped to ``max_delay``."""
        if rate_mbps < 0:
            raise ConfigurationError(f"rate must be non-negative, got {rate_mbps}")
        if bandwidth_mbps <= 0:
            return self.max_delay if rate_mbps > 0 else 0.0
        if rate_mbps >= bandwidth_mbps:
            return self.max_delay
        return min(rate_mbps / (bandwidth_mbps - rate_mbps), self.max_delay)

    def delays(
        self, rates_mbps: Sequence[float], bandwidth_mbps: float
    ) -> Tuple[float, ...]:
        """:meth:`delay` of each rate over one link: a user's per-level row."""
        return tuple(self.delay(rate, bandwidth_mbps) for rate in rates_mbps)


def sample_rtts(
    sending_rate_mbps: float,
    capacity_mbps: float = 15.0,
    num_samples: int = 10_000,
    packet_bits: float = 12_000.0,
    base_rtt_ms: float = 2.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Simulate the Fig. 1b experiment: RTTs on a loaded, capped link.

    Packets arrive as a Poisson process at the sending rate and are
    served at the link capacity with exponential service times; the
    waiting time follows Lindley's recursion.  Each RTT is the base
    propagation RTT plus the queueing sojourn of a probe.

    Returns the sampled RTTs in milliseconds.
    """
    if sending_rate_mbps < 0:
        raise ConfigurationError(
            f"sending rate must be non-negative, got {sending_rate_mbps}"
        )
    if capacity_mbps <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity_mbps}")
    if sending_rate_mbps >= capacity_mbps:
        raise ConfigurationError(
            "sending rate must stay below capacity for a stable queue; got "
            f"{sending_rate_mbps} >= {capacity_mbps}"
        )
    if num_samples < 1:
        raise ConfigurationError(f"num_samples must be >= 1, got {num_samples}")
    if rng is None:
        rng = np.random.default_rng(0)

    service_rate_pps = capacity_mbps * 1e6 / packet_bits
    arrival_rate_pps = max(sending_rate_mbps, 1e-6) * 1e6 / packet_bits

    inter_arrivals = rng.exponential(1.0 / arrival_rate_pps, size=num_samples)
    services = rng.exponential(1.0 / service_rate_pps, size=num_samples)

    # Lindley recursion: W_{k+1} = max(W_k + S_k - A_{k+1}, 0).
    waits = np.empty(num_samples)
    w = 0.0
    for k in range(num_samples):
        waits[k] = w
        w = max(w + services[k] - inter_arrivals[k], 0.0)
    sojourn_s = waits + services
    return base_rtt_ms + sojourn_s * 1e3


def mean_rtt_curve(
    rates_mbps: Sequence[float],
    capacity_mbps: float = 15.0,
    num_samples: int = 10_000,
    seed: int = 0,
) -> List[float]:
    """Mean RTT at each sending rate — the Fig. 1b curve."""
    rng = np.random.default_rng(seed)
    return [
        float(np.mean(sample_rtts(rate, capacity_mbps, num_samples, rng=rng)))
        for rate in rates_mbps
    ]

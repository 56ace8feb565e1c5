"""The M/M/1 delay model over a whole slot's ``(N, L)`` rate matrix.

:func:`mm1_delay_matrix` replicates
:meth:`~repro.simulation.delaymodel.MM1DelayModel.delay` branch by
branch, so one call gives every user's expected delay at every level
bit-for-bit as the scalar model would, ready to be a
:class:`~repro.core.allocation.SlotProblem`'s ``delays``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def mm1_delay_matrix(
    rates: np.ndarray,
    bandwidth_mbps: np.ndarray,
    max_delay: float = 100.0,
) -> np.ndarray:
    """Vectorized eq. (13): ``d = min(f / (B - f), max_delay)``.

    ``rates`` is ``(N, L)`` and ``bandwidth_mbps`` is ``(N,)``; the
    result matches ``MM1DelayModel(max_delay).delay(rates[n, k], B[n])``
    bit-for-bit, including the zero-bandwidth and saturation guards.
    """
    if max_delay <= 0:
        raise ConfigurationError(f"max_delay must be positive, got {max_delay}")
    rates = np.asarray(rates, dtype=float)
    bandwidth = np.asarray(bandwidth_mbps, dtype=float)[:, None]
    if np.any(rates < 0):
        raise ConfigurationError("rates must be non-negative")
    with np.errstate(divide="ignore", invalid="ignore"):
        queueing = rates / (bandwidth - rates)
    delays = np.minimum(queueing, max_delay)
    # rate >= bandwidth diverges (or goes negative past the pole).
    delays = np.where(rates >= bandwidth, max_delay, delays)
    # Dead link: max_delay when anything is sent, 0 when idle.
    dead = bandwidth <= 0
    delays = np.where(dead & (rates > 0), max_delay, delays)
    delays = np.where(dead & (rates <= 0), 0.0, delays)
    return delays

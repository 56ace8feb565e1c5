"""Decomposition of the horizon objective into per-slot problems.

Appendix A of the paper shows, via Welford's variance iteration, that

    T * sigma_n^2(T) = sum_t  (t-1)/t * ( q_n(t) 1_n(t) - qbar_n(t-1) )^2     (4)

where ``qbar_n(t)`` is the running mean of the viewed quality.  This
makes the variance separable over slots *given the running mean*, so
the horizon problem (1)-(3) decomposes into one combinatorial problem
per slot with objective (9):

    h_n(q) = delta_n * q
           - alpha * E[ d_n(f^R(q)) ]
           - beta * ( delta_n * (t-1)/t * (q - qbar)^2
                    + (1 - delta_n) * (t-1)/t * qbar^2 )

with ``delta_n = E[1_n(t)]`` the prediction success probability: with
probability ``delta_n`` the user views quality ``q`` (deviation
``q - qbar``), otherwise views 0 (deviation ``-qbar``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError


def running_means(viewed: Sequence[float]) -> List[float]:
    """``qbar(t)`` for t = 1..T, given the viewed-quality series."""
    means: List[float] = []
    total = 0.0
    for t, v in enumerate(viewed, start=1):
        total += v
        means.append(total / t)
    return means


def variance_penalty_term(t: int, viewed_quality: float, qbar_prev: float) -> float:
    """One summand of eq. (4): ``(t-1)/t * (viewed - qbar(t-1))^2``.

    ``t`` is 1-based; at ``t = 1`` the term vanishes (no history yet).
    """
    if t < 1:
        raise ConfigurationError(f"slot index t must be >= 1, got {t}")
    deviation = viewed_quality - qbar_prev
    # Squaring via multiplication (not ``**``): CPython's pow and
    # numpy's multiply differ in the last ulp for some inputs, and the
    # vectorized slot kernel must reproduce these values bit-for-bit.
    return (t - 1) / t * (deviation * deviation)


def welford_decomposition(viewed: Sequence[float]) -> Tuple[List[float], float]:
    """All summands of eq. (4) and their total ``T * sigma^2(T)``.

    The total provably equals ``T`` times the population variance of
    ``viewed`` — the identity the decomposition rests on; tests verify
    it to float precision.
    """
    terms: List[float] = []
    qbar_prev = 0.0
    total = 0.0
    count = 0
    for t, v in enumerate(viewed, start=1):
        term = variance_penalty_term(t, v, qbar_prev)
        terms.append(term)
        total += v
        count = t
        qbar_prev = total / count
    return terms, sum(terms)


def slot_objective(
    level: int,
    t: int,
    qbar_prev: float,
    delta: float,
    alpha: float,
    beta: float,
    expected_delay: float,
) -> float:
    """``h_n(q)`` of eq. (9) for one quality level.

    Parameters
    ----------
    level:
        Quality level ``q`` (0 = skip: nothing delivered, viewed
        quality 0 with certainty, zero delay).
    t:
        1-based slot index.
    qbar_prev:
        Running mean of viewed quality through slot ``t - 1``.
    delta:
        Prediction success probability ``delta_n`` (or its running
        estimate ``delta_bar_n(t)``).
    alpha, beta:
        QoE weights.
    expected_delay:
        ``E[d_n(f^R(q))]`` for this level (ignored for level 0, which
        transmits nothing).
    """
    if level < 0:
        raise ConfigurationError(f"level must be non-negative, got {level}")
    if not 0.0 <= delta <= 1.0:
        raise ConfigurationError(f"delta must be in [0, 1], got {delta}")
    if t < 1:
        raise ConfigurationError(f"slot index t must be >= 1, got {t}")
    ratio = (t - 1) / t
    # Squares are written as explicit multiplications so the scalar
    # path stays bit-identical to the array kernel (``x ** 2`` routes
    # through libm pow, which can differ from multiply by one ulp).
    if level == 0:
        # Skip: deterministic view of 0 -> deviation -qbar, no delay.
        return -beta * ratio * (qbar_prev * qbar_prev)
    deviation = level - qbar_prev
    variance_penalty = delta * ratio * (deviation * deviation) + (
        1.0 - delta
    ) * ratio * (qbar_prev * qbar_prev)
    return delta * level - alpha * expected_delay - beta * variance_penalty


def slot_objective_curve(
    t: int,
    qbar_prev: float,
    delta: float,
    alpha: float,
    beta: float,
    delays: Sequence[float],
) -> Tuple[float, ...]:
    """``(h_n(1), ..., h_n(L))`` for one user in one slot.

    ``delays[q - 1]`` must be ``E[d_n(f^R(q))]``, one entry per level;
    the caller composes the rate curve with its delay model or
    predictor.
    """
    if not delays:
        raise ConfigurationError("a user needs at least one quality level")
    return tuple(
        slot_objective(q, t, qbar_prev, delta, alpha, beta, delay)
        for q, delay in enumerate(delays, start=1)
    )


def skip_objective(t: int, qbar_prev: float, beta: float) -> float:
    """``h_n(0)`` — the value of skipping delivery this slot."""
    return slot_objective(0, t, qbar_prev, 1.0, 0.0, beta, 0.0)

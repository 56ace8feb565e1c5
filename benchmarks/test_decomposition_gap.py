"""Eq. (8) — the vanishing gap of the per-slot decomposition.

The paper argues that sequentially solving the per-slot problems (5)
loses nothing asymptotically versus the full-horizon problem (1):

    lim_{T->inf} (1/T) (QoE_hat(T) - QoE*(T)) = 0.

We measure the gap directly on a small instance where the horizon
optimum ``QoE*(T)`` is computable by exhaustive search over all level
sequences: one user, three quality levels, a fast warm-up followed by
a permanently slower link (so the variance term couples slots
nontrivially).  The myopic per-slot policy grabs the cheap high level
during warm-up and pays a variance transient afterwards; the horizon
optimum holds a constant level.  Eq. (8) predicts the per-slot
deficit decays with the horizon.

Note the beta window: the paper's limit assumes *continuous* quality.
With coarse discrete levels and a large beta, the myopic policy can
lock in to the warm-up level (dropping one whole level costs more
variance than the delay it saves) and the gap persists — a real,
measurable discreteness effect.  The weights here sit inside the
window where the optimum is constant but the greedy still adapts,
which is the regime eq. (8) describes.
"""

import itertools

import numpy as np
import pytest

from repro.analysis.report import format_table
from repro.core.allocation import DensityValueGreedyAllocator, SlotProblem, UserSlotState
from repro.core.qoe import QoEWeights, UserQoELedger
from repro.simulation.delaymodel import MM1DelayModel
from benchmarks.conftest import record_figure

SIZES = (6.0, 14.0, 22.0)
WEIGHTS = QoEWeights(alpha=0.3, beta=1.15)
_MODEL = MM1DelayModel()

#: Two fast warm-up slots, then a permanently slower link.  The
#: myopic per-slot policy takes the high level while it is cheap,
#: then pays a variance transient when the link degrades; the horizon
#: optimum anticipates the change.  This is exactly the regime where
#: QoE_hat(T) < QoE*(T), and eq. (8) says the per-slot deficit decays.
_FAST_SLOTS = 2


def _bandwidth(t):
    """Slot bandwidth (t is 1-based): fast warm-up, then slow."""
    return 50.0 if t <= _FAST_SLOTS else 25.0


def _delay(level, t):
    return _MODEL.delay(SIZES[level - 1], _bandwidth(t))


def horizon_optimum_exhaustive(horizon):
    """Exhaustive QoE*(T) over all 3^T level sequences (small T)."""
    best = -np.inf
    for sequence in itertools.product((1, 2, 3), repeat=horizon):
        viewed = np.array(sequence, dtype=float)
        qoe = (
            viewed.sum()
            - WEIGHTS.alpha * sum(_delay(l, t + 1) for t, l in enumerate(sequence))
            - WEIGHTS.beta * horizon * viewed.var()
        )
        if qoe > best:
            best = qoe
    return best


def horizon_optimum(horizon):
    """Exact QoE*(T) by DP over the sufficient statistics.

    A sequence's QoE depends on its levels only through ``sum q`` and
    ``sum q^2`` (the variance term) plus an additive, slot-separable
    delay cost, so an exact DP over ``(sum q, sum q^2)`` states
    replaces the 3^T enumeration and scales to T ~ 40.  Tests verify
    it against the exhaustive form on small horizons.
    """
    # state (sum_q, sum_q2) -> best accumulated (-alpha * total delay)
    states = {(0, 0): 0.0}
    for t in range(1, horizon + 1):
        new_states = {}
        for (sum_q, sum_q2), delay_score in states.items():
            for level in (1, 2, 3):
                key = (sum_q + level, sum_q2 + level * level)
                candidate = delay_score - WEIGHTS.alpha * _delay(level, t)
                if candidate > new_states.get(key, -np.inf):
                    new_states[key] = candidate
        states = new_states
    return max(
        sum_q + delay_score - WEIGHTS.beta * (sum_q2 - sum_q * sum_q / horizon)
        for (sum_q, sum_q2), delay_score in states.items()
    )


def sequential_policy_qoe(horizon):
    """QoE_hat(T): Algorithm 1 applied slot by slot."""
    allocator = DensityValueGreedyAllocator()
    ledger = UserQoELedger()
    qbar = 0.0
    for t in range(1, horizon + 1):
        bandwidth = _bandwidth(t)
        user = UserSlotState(
            sizes=SIZES,
            delays=_MODEL.delays(SIZES, bandwidth),
            delta=1.0,
            qbar=qbar,
            cap_mbps=bandwidth,
        )
        problem = SlotProblem.from_users(t, (user,), bandwidth, WEIGHTS)
        level = allocator.allocate(problem)[0]
        ledger.record(level, 1, _delay(level, t))
        qbar = ledger.mean_viewed_quality()
    return ledger.qoe(WEIGHTS)


@pytest.fixture(scope="module")
def gap_series():
    horizons = [5, 9, 15, 25, 41]
    rows = []
    for horizon in horizons:
        optimal = horizon_optimum(horizon)
        sequential = sequential_policy_qoe(horizon)
        rows.append((horizon, (optimal - sequential) / horizon, optimal / horizon))
    return rows


def test_eq8_gap_shrinks_with_horizon(benchmark, gap_series):
    benchmark.pedantic(lambda: sequential_policy_qoe(64), rounds=1, iterations=1)

    table = format_table(
        ["horizon T", "per-slot gap", "optimal per-slot QoE"],
        [[t, gap, opt] for t, gap, opt in gap_series],
    )
    record_figure("eq8_decomposition_gap", table)

    gaps = [gap for _, gap, _ in gap_series]
    # The per-slot deficit peaks around the regime change and then
    # decays with the horizon, ending small relative to the QoE scale
    # (eq. (8) is exact only for continuous levels; discrete levels
    # leave a negligible floor).
    assert gaps[-1] <= max(gaps) + 1e-9
    assert gaps[-1] <= gaps[-2] + 1e-9
    final_opt = gap_series[-1][2]
    assert gaps[-1] < 0.05 * abs(final_opt)


def test_eq8_sequential_never_beats_optimum(gap_series):
    for _, gap, _ in gap_series:
        assert gap >= -1e-9


def test_eq8_dp_matches_exhaustive():
    """The sufficient-statistics DP equals brute force on small T."""
    for horizon in (3, 5, 7):
        assert horizon_optimum(horizon) == pytest.approx(
            horizon_optimum_exhaustive(horizon), rel=1e-12, abs=1e-9
        )


def test_eq8_long_run_average_stabilises():
    """QoE_hat(T)/T converges (Cesaro) as T grows."""
    values = [sequential_policy_qoe(t) / t for t in (50, 100, 200)]
    assert abs(values[-1] - values[-2]) < abs(values[1] - values[0]) + 1e-9
    assert abs(values[-1] - values[-2]) < 0.05

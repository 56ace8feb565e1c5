"""Tests for the Welford decomposition and the per-slot objective."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import (
    running_means,
    skip_objective,
    slot_objective,
    slot_objective_curve,
    variance_penalty_term,
    welford_decomposition,
)
from repro.errors import ConfigurationError


class TestWelfordDecomposition:
    @given(
        st.lists(st.floats(0.0, 6.0, allow_nan=False), min_size=1, max_size=100)
    )
    @settings(max_examples=150, deadline=None)
    def test_identity_eq4(self, viewed):
        """Eq. (4): sum of terms == T * population variance."""
        _, total = welford_decomposition(viewed)
        expected = len(viewed) * float(np.var(viewed))
        assert total == pytest.approx(expected, rel=1e-9, abs=1e-7)

    def test_first_term_zero(self):
        terms, _ = welford_decomposition([5.0, 5.0, 3.0])
        assert terms[0] == 0.0

    def test_constant_series_zero_variance(self):
        terms, total = welford_decomposition([4.0] * 20)
        assert total == pytest.approx(0.0)
        assert all(t == pytest.approx(0.0) for t in terms)

    def test_running_means(self):
        assert running_means([2.0, 4.0, 6.0]) == [2.0, 3.0, 4.0]

    def test_variance_penalty_term(self):
        assert variance_penalty_term(1, 5.0, 0.0) == 0.0
        assert variance_penalty_term(2, 5.0, 3.0) == pytest.approx(0.5 * 4.0)

    def test_penalty_rejects_bad_t(self):
        with pytest.raises(ConfigurationError):
            variance_penalty_term(0, 1.0, 1.0)


class TestSlotObjective:
    def test_no_variance_penalty_at_t1(self):
        h = slot_objective(4, t=1, qbar_prev=0.0, delta=0.9, alpha=0.1,
                           beta=0.5, expected_delay=1.0)
        assert h == pytest.approx(0.9 * 4 - 0.1 * 1.0)

    def test_matches_eq9(self):
        """Hand-computed h_n(q) for a nontrivial state."""
        q, t, qbar, delta, alpha, beta, delay = 3, 5, 2.0, 0.8, 0.1, 0.5, 0.7
        ratio = (t - 1) / t
        expected = (
            delta * q
            - alpha * delay
            - beta * (delta * ratio * (q - qbar) ** 2 + (1 - delta) * ratio * qbar ** 2)
        )
        assert slot_objective(q, t, qbar, delta, alpha, beta, delay) == pytest.approx(
            expected
        )

    def test_skip_objective(self):
        assert skip_objective(1, 3.0, 0.5) == 0.0
        assert skip_objective(4, 3.0, 0.5) == pytest.approx(-0.5 * 0.75 * 9.0)

    def test_level_zero_matches_skip(self):
        h0 = slot_objective(0, 4, 3.0, 0.9, 0.1, 0.5, 0.0)
        assert h0 == pytest.approx(skip_objective(4, 3.0, 0.5))

    def test_perfect_prediction_removes_miss_penalty(self):
        h_perfect = slot_objective(3, 5, 3.0, 1.0, 0.0, 0.5, 0.0)
        # delta=1 and q == qbar: no variance penalty at all.
        assert h_perfect == pytest.approx(3.0)

    def test_imperfect_prediction_discounts(self):
        h_perfect = slot_objective(4, 5, 2.0, 1.0, 0.1, 0.5, 0.5)
        h_imperfect = slot_objective(4, 5, 2.0, 0.7, 0.1, 0.5, 0.5)
        assert h_imperfect < h_perfect

    def test_variance_penalty_grows_with_distance(self):
        base = dict(t=10, delta=0.9, alpha=0.0, beta=0.5, expected_delay=0.0)
        near = slot_objective(3, qbar_prev=3.0, **base)
        far = slot_objective(6, qbar_prev=3.0, **base)
        # The level gain is +3 but the variance penalty eats into it.
        assert far - near < 3.0

    def test_curve_shape(self):
        curve = slot_objective_curve(
            t=5, qbar_prev=2.0, delta=0.9, alpha=0.1, beta=0.5,
            delays=[0.1 * level for level in range(1, 7)],
        )
        assert len(curve) == 6
        assert curve[0] == pytest.approx(
            slot_objective(1, 5, 2.0, 0.9, 0.1, 0.5, 0.1)
        )

    def test_curve_concave_under_convex_delay(self):
        """h_n is concave in q when the delay curve is convex."""
        delays = [0.1, 0.2, 0.4, 0.8, 1.6, 3.2]
        curve = slot_objective_curve(
            t=8, qbar_prev=3.0, delta=0.9, alpha=0.5, beta=0.5, delays=delays,
        )
        increments = [b - a for a, b in zip(curve, curve[1:])]
        assert all(b <= a + 1e-9 for a, b in zip(increments, increments[1:]))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            slot_objective(-1, 1, 0.0, 0.9, 0.1, 0.5, 0.0)
        with pytest.raises(ConfigurationError):
            slot_objective(1, 0, 0.0, 0.9, 0.1, 0.5, 0.0)
        with pytest.raises(ConfigurationError):
            slot_objective(1, 1, 0.0, 1.5, 0.1, 0.5, 0.0)
        with pytest.raises(ConfigurationError):
            slot_objective_curve(1, 0.0, 0.9, 0.1, 0.5, [])

"""Tests for the polynomial-regression delay predictor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.prediction.delay import PolynomialDelayPredictor


class TestPolynomialDelayPredictor:
    def test_fallback_before_data(self):
        predictor = PolynomialDelayPredictor(fallback_delay=0.7)
        assert predictor.predict(30.0) == 0.7

    def test_mean_with_few_samples(self):
        predictor = PolynomialDelayPredictor(min_samples=8)
        predictor.observe(10.0, 0.2)
        predictor.observe(20.0, 0.4)
        assert predictor.predict(50.0) == pytest.approx(0.3)

    def test_recovers_quadratic_relationship(self):
        """Delay = 0.001 r^2 + 0.01 r must be learned accurately."""
        predictor = PolynomialDelayPredictor(degree=2, window=100, min_samples=8)
        rng = np.random.default_rng(1)
        for _ in range(60):
            r = float(rng.uniform(5.0, 60.0))
            predictor.observe(r, 0.001 * r * r + 0.01 * r)
        for r in (10.0, 30.0, 55.0):
            expected = 0.001 * r * r + 0.01 * r
            assert predictor.predict(r) == pytest.approx(expected, rel=1e-6)

    def test_degenerate_rates_fall_back_to_mean(self):
        """All samples at one rate: rank-deficient fit must not blow up."""
        predictor = PolynomialDelayPredictor(degree=2, min_samples=3)
        for _ in range(10):
            predictor.observe(25.0, 0.5)
        assert predictor.predict(25.0) == pytest.approx(0.5)
        assert predictor.predict(60.0) == pytest.approx(0.5)

    def test_two_distinct_rates_fit_line(self):
        predictor = PolynomialDelayPredictor(degree=2, min_samples=4)
        for _ in range(5):
            predictor.observe(10.0, 0.1)
            predictor.observe(20.0, 0.3)
        assert predictor.predict(30.0) == pytest.approx(0.5, abs=1e-6)

    def test_prediction_never_negative(self):
        predictor = PolynomialDelayPredictor(degree=2, min_samples=4)
        for r, d in [(10.0, 0.5), (20.0, 0.3), (30.0, 0.1), (40.0, 0.05)]:
            predictor.observe(r, d)
            predictor.observe(r + 1, d)
        assert predictor.predict(80.0) >= 0.0

    def test_sliding_window_forgets(self):
        predictor = PolynomialDelayPredictor(degree=1, window=4, min_samples=2)
        for _ in range(4):
            predictor.observe(10.0, 5.0)
        for _ in range(4):
            predictor.observe(10.0, 1.0)
        assert predictor.predict(10.0) == pytest.approx(1.0)

    def test_reset(self):
        predictor = PolynomialDelayPredictor(fallback_delay=0.9)
        predictor.observe(10.0, 1.0)
        predictor.reset()
        assert predictor.num_samples == 0
        assert predictor.predict(10.0) == 0.9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PolynomialDelayPredictor(degree=0)
        with pytest.raises(ConfigurationError):
            PolynomialDelayPredictor(degree=3, window=3)
        with pytest.raises(ConfigurationError):
            PolynomialDelayPredictor(min_samples=1)
        with pytest.raises(ConfigurationError):
            PolynomialDelayPredictor(fallback_delay=-1.0)
        predictor = PolynomialDelayPredictor()
        with pytest.raises(ConfigurationError):
            predictor.observe(-1.0, 0.5)
        with pytest.raises(ConfigurationError):
            predictor.observe(1.0, -0.5)
        with pytest.raises(ConfigurationError):
            predictor.predict(-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_samples(self, bad):
        """One NaN or infinite sample would poison every later fit."""
        predictor = PolynomialDelayPredictor(min_samples=3)
        for rate in (10.0, 20.0, 30.0):
            predictor.observe(rate, rate / 100.0)
        with pytest.raises(ConfigurationError):
            predictor.observe(bad, 0.5)
        with pytest.raises(ConfigurationError):
            predictor.observe(15.0, bad)
        assert predictor.num_samples == 3
        assert predictor.predict(25.0) == pytest.approx(0.25)
        with pytest.raises(ConfigurationError):
            PolynomialDelayPredictor().restore_state([(10.0, 0.1), (bad, 0.2)])

    def test_fit_degree_counts_rates_equal_at_six_decimals(self):
        """The fit degree follows ``np.unique`` over the rounded rates."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            base = rng.choice([0.0, -0.0, 1e-7, 4e-7, 1.0000004, 1.0, 5e8, 3.5])
            rates = np.abs(base + rng.integers(0, 3, size=12) * 1e-7)
            predictor = PolynomialDelayPredictor(degree=3, min_samples=4)
            for rate in rates:
                predictor.observe(float(rate), float(rng.uniform(0.1, 2.0)))
            predictor.predict(1.0)
            distinct = len(np.unique(np.round(rates, 6)))
            assert len(predictor._coeffs) - 1 == min(3, distinct - 1)


def _polyval_reference(predictor, rate):
    """The prediction as ``np.polyval`` computes it on the same fit."""
    samples = predictor.export_state()
    if len(samples) < predictor.min_samples:
        if not samples:
            return predictor.fallback_delay
        return float(np.mean([s[1] for s in samples]))
    rates = np.array([s[0] for s in samples])
    delays = np.array([s[1] for s in samples])
    distinct = len(np.unique(np.round(rates, 6)))
    degree = min(predictor.degree, max(distinct - 1, 0))
    if degree == 0:
        coeffs = np.array([float(delays.mean())])
    else:
        coeffs = np.polyfit(rates, delays, degree)
    return max(float(np.polyval(coeffs, rate)), 0.0)


_RATES = st.one_of(
    st.sampled_from([0.0, 12.5, 40.0]),
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    degree=st.integers(min_value=1, max_value=3),
    samples=st.lists(
        st.tuples(
            _RATES,
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        ),
        max_size=20,
    ),
    queries=st.lists(_RATES, min_size=1, max_size=7),
)
def test_horner_prediction_equals_polyval(degree, samples, queries):
    """Bit-identical to ``np.polyval``: degree-0 and degree-1 fits (a
    window of one or two distinct rates), the under-``min_samples``
    mean, the empty fallback and the ``0.0`` clamp (compared with
    the sign of zero)."""
    predictor = PolynomialDelayPredictor(
        degree=degree, min_samples=degree + 1
    )
    for rate, delay in samples:
        predictor.observe(rate, delay)
    for rate in queries:
        got = predictor.predict(rate)
        want = _polyval_reference(predictor, rate)
        assert (got, math.copysign(1.0, got)) == (
            want, math.copysign(1.0, want)
        )

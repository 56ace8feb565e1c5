"""Tests for the M/M/1 delay model (eq. 13) and the Fig. 1b sampler."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simulation.delaymodel import MM1DelayModel, mean_rtt_curve, sample_rtts


class TestMM1DelayModel:
    def test_eq13_value(self):
        model = MM1DelayModel()
        # d = f / (B - f): 30 / (60 - 30) = 1.
        assert model.delay(30.0, 60.0) == pytest.approx(1.0)
        assert model.delay(20.0, 60.0) == pytest.approx(0.5)

    def test_zero_rate_zero_delay(self):
        assert MM1DelayModel().delay(0.0, 60.0) == 0.0

    def test_saturation_clamped(self):
        model = MM1DelayModel(max_delay=50.0)
        assert model.delay(60.0, 60.0) == 50.0
        assert model.delay(100.0, 60.0) == 50.0
        assert model.delay(59.999, 60.0) == 50.0  # blown past the clamp

    def test_zero_bandwidth(self):
        model = MM1DelayModel(max_delay=10.0)
        assert model.delay(1.0, 0.0) == 10.0
        assert model.delay(0.0, 0.0) == 0.0

    def test_convex_increasing_in_rate(self):
        """The Section II structural assumption, numerically."""
        model = MM1DelayModel()
        rates = np.linspace(1.0, 50.0, 25)
        delays = [model.delay(r, 60.0) for r in rates]
        increments = np.diff(delays)
        assert (increments > 0).all()
        assert (np.diff(increments) > -1e-12).all()

    def test_delays_is_one_delay_per_rate(self):
        model = MM1DelayModel(max_delay=50.0)
        rates = (0.0, 20.0, 30.0, 60.0, 75.0)
        row = model.delays(rates, 60.0)
        assert row == tuple(model.delay(rate, 60.0) for rate in rates)
        assert row == (0.0, 0.5, 1.0, 50.0, 50.0)
        assert model.delays((), 60.0) == ()
        with pytest.raises(ConfigurationError):
            model.delays((10.0, -1.0), 60.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MM1DelayModel(max_delay=0.0)
        with pytest.raises(ConfigurationError):
            MM1DelayModel().delay(-1.0, 60.0)


class TestRttSampling:
    def test_returns_requested_samples(self, rng):
        rtts = sample_rtts(5.0, capacity_mbps=15.0, num_samples=500, rng=rng)
        assert len(rtts) == 500
        assert (rtts >= 2.0).all()  # base RTT floor

    def test_mean_rtt_grows_with_rate(self):
        """Higher sending rate -> longer queue -> larger RTT."""
        low = np.mean(sample_rtts(3.0, 15.0, 20_000, rng=np.random.default_rng(0)))
        high = np.mean(sample_rtts(12.0, 15.0, 20_000, rng=np.random.default_rng(0)))
        assert high > low

    def test_fig1b_curve_convex(self):
        """The Fig. 1b shape: mean RTT convex in the sending rate."""
        rates = [2.0, 5.0, 8.0, 11.0, 13.5]
        curve = mean_rtt_curve(rates, capacity_mbps=15.0, num_samples=30_000)
        increments = np.diff(curve)
        assert (increments > 0).all()
        assert (np.diff(increments) > 0).all()

    def test_matches_mm1_theory_at_moderate_load(self):
        """Mean sojourn ~ 1/(mu - lambda) for M/M/1."""
        capacity, rate, packet_bits = 15.0, 9.0, 12_000.0
        mu = capacity * 1e6 / packet_bits
        lam = rate * 1e6 / packet_bits
        expected_ms = 2.0 + 1e3 / (mu - lam)
        measured = np.mean(
            sample_rtts(rate, capacity, 200_000, rng=np.random.default_rng(1))
        )
        assert measured == pytest.approx(expected_ms, rel=0.1)

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            sample_rtts(-1.0, 15.0, rng=rng)
        with pytest.raises(ConfigurationError):
            sample_rtts(15.0, 15.0, rng=rng)  # unstable queue
        with pytest.raises(ConfigurationError):
            sample_rtts(1.0, 0.0, rng=rng)
        with pytest.raises(ConfigurationError):
            sample_rtts(1.0, 15.0, num_samples=0, rng=rng)

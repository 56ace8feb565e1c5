"""Tests for the network emulation layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.system.netem import (
    FadingProcess,
    InterferenceField,
    Router,
    ThrottledLink,
    max_min_fair_share,
)


class TestMaxMinFairShare:
    def test_everyone_satisfied_when_capacity_ample(self):
        rates = max_min_fair_share([10.0, 20.0], [100.0, 100.0], 100.0)
        assert rates == [10.0, 20.0]

    def test_equal_split_when_scarce(self):
        rates = max_min_fair_share([50.0, 50.0], [100.0, 100.0], 60.0)
        assert rates == pytest.approx([30.0, 30.0])

    def test_small_flow_frozen_then_redistributed(self):
        rates = max_min_fair_share([5.0, 100.0], [100.0, 100.0], 60.0)
        assert rates == pytest.approx([5.0, 55.0])

    def test_caps_bind(self):
        rates = max_min_fair_share([100.0, 100.0], [20.0, 100.0], 90.0)
        assert rates == pytest.approx([20.0, 70.0])

    def test_idle_flows_get_zero(self):
        rates = max_min_fair_share([0.0, 50.0], [100.0, 100.0], 60.0)
        assert rates[0] == 0.0
        assert rates[1] == 50.0

    def test_zero_capacity(self):
        rates = max_min_fair_share([10.0, 10.0], [50.0, 50.0], 0.0)
        assert rates == [0.0, 0.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            max_min_fair_share([1.0], [1.0, 2.0], 10.0)
        with pytest.raises(ConfigurationError):
            max_min_fair_share([1.0], [1.0], -1.0)

    @given(
        st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=8),
        st.floats(0.0, 500.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariants(self, demands, capacity):
        caps = [d + 10.0 for d in demands]
        rates = max_min_fair_share(demands, caps, capacity)
        assert sum(rates) <= capacity + 1e-6
        for rate, demand, cap in zip(rates, demands, caps):
            assert -1e-9 <= rate <= min(demand, cap) + 1e-6


class TestFadingProcess:
    def test_stays_in_bounds(self, rng):
        fading = FadingProcess(sigma=0.3, floor=0.4, ceiling=1.2)
        for _ in range(2000):
            value = fading.step(rng)
            assert 0.4 <= value <= 1.2

    def test_mean_reverts_toward_one(self, rng):
        fading = FadingProcess(reversion=0.2, sigma=0.01)
        fading._value = 0.5  # noqa: SLF001 - force a displaced start
        for _ in range(200):
            fading.step(rng)
        assert fading.value > 0.8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FadingProcess(reversion=0.0)
        with pytest.raises(ConfigurationError):
            FadingProcess(sigma=-1.0)
        with pytest.raises(ConfigurationError):
            FadingProcess(floor=1.5)


class TestThrottledLink:
    def test_effective_tracks_guideline(self, rng):
        link = ThrottledLink(50.0, FadingProcess(sigma=0.05))
        values = [link.step(rng) for _ in range(500)]
        assert 0.3 * 50.0 <= min(values)
        assert max(values) <= 1.2 * 50.0
        assert np.mean(values) == pytest.approx(50.0, rel=0.15)

    def test_rejects_bad_guideline(self):
        with pytest.raises(ConfigurationError):
            ThrottledLink(0.0)


class TestInterferenceField:
    def test_silent_when_onset_zero(self, rng):
        field = InterferenceField(onset_probability=0.0)
        assert all(field.step(rng) == 1.0 for _ in range(500))

    def test_bursts_reduce_capacity(self):
        field = InterferenceField(onset_probability=1.0, severity_range=(0.3, 0.5))
        rng = np.random.default_rng(0)
        factor = field.step(rng)
        assert 0.3 <= factor <= 0.5

    def test_bursts_end(self):
        field = InterferenceField(
            onset_probability=1.0, mean_duration_slots=1.0, severity_range=(0.5, 0.5)
        )
        rng = np.random.default_rng(0)
        factors = [field.step(rng) for _ in range(200)]
        assert any(f == 1.0 for f in factors)
        assert any(f < 1.0 for f in factors)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            InterferenceField(onset_probability=1.5)
        with pytest.raises(ConfigurationError):
            InterferenceField(mean_duration_slots=0.0)
        with pytest.raises(ConfigurationError):
            InterferenceField(severity_range=(0.0, 0.5))


class TestRouter:
    def test_transmit_respects_capacity(self, rng):
        router = Router(100.0)
        router.step(rng)
        rates = router.transmit([80.0, 80.0], [100.0, 100.0])
        assert sum(rates) <= router.slot_capacity_mbps + 1e-6

    def test_contention_reduces_efficiency(self, rng):
        router = Router(100.0, contention_loss_per_flow=0.05)
        router._slot_capacity = 100.0  # noqa: SLF001 - pin for determinism
        single = router.transmit([100.0], [100.0])
        many = router.transmit([25.0] * 4, [100.0] * 4)
        assert sum(many) < sum(single) + 1e-9
        assert sum(many) == pytest.approx(100.0 * (1 - 0.05 * 3))

    def test_efficiency_floor(self, rng):
        router = Router(100.0, contention_loss_per_flow=0.1, min_efficiency=0.6)
        router._slot_capacity = 100.0  # noqa: SLF001
        rates = router.transmit([20.0] * 10, [100.0] * 10)
        assert sum(rates) == pytest.approx(60.0)

    def test_interference_shared_between_routers(self):
        field = InterferenceField(onset_probability=1.0, severity_range=(0.4, 0.4))
        a = Router(100.0, interference=field, fading=FadingProcess(sigma=0.0))
        rng = np.random.default_rng(0)
        a.step(rng)
        assert a.slot_capacity_mbps == pytest.approx(100.0 * field.factor, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Router(0.0)
        with pytest.raises(ConfigurationError):
            Router(100.0, contention_loss_per_flow=1.0)
        with pytest.raises(ConfigurationError):
            Router(100.0, min_efficiency=0.0)

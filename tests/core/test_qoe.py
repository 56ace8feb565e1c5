"""Tests for the QoE definition of Section II."""

import numpy as np
import pytest

from repro.core.qoe import QoEWeights, UserQoELedger, system_qoe
from repro.errors import ConfigurationError


class TestQoEWeights:
    def test_paper_defaults(self):
        sim = QoEWeights.simulation_defaults()
        assert (sim.alpha, sim.beta) == (0.02, 0.5)
        system = QoEWeights.system_defaults()
        assert (system.alpha, system.beta) == (0.1, 0.5)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            QoEWeights(-0.1, 0.5)
        with pytest.raises(ConfigurationError):
            QoEWeights(0.1, -0.5)


class TestUserQoELedger:
    def test_empty_ledger(self):
        ledger = UserQoELedger()
        assert ledger.horizon == 0
        assert ledger.mean_viewed_quality() == 0.0
        assert ledger.quality_variance() == 0.0
        assert ledger.qoe(QoEWeights(0.1, 0.5)) == 0.0

    def test_single_slot(self):
        ledger = UserQoELedger()
        ledger.record(level=4, indicator=1, delay=0.5)
        assert ledger.mean_viewed_quality() == 4.0
        assert ledger.quality_variance() == 0.0
        assert ledger.mean_delay() == 0.5

    def test_miss_zeroes_viewed_quality(self):
        ledger = UserQoELedger()
        ledger.record(level=4, indicator=0, delay=0.5)
        assert ledger.mean_viewed_quality() == 0.0
        assert ledger.mean_allocated_level() == 4.0

    def test_skip_slot(self):
        ledger = UserQoELedger()
        ledger.record(level=0, indicator=0, delay=0.0)
        assert ledger.mean_viewed_quality() == 0.0
        assert ledger.mean_delay() == 0.0

    def test_skip_forces_zero_indicator(self):
        ledger = UserQoELedger()
        ledger.record(level=0, indicator=1, delay=0.0)
        assert ledger.viewed_qualities == (0.0,)

    def test_skip_with_delay_rejected(self):
        ledger = UserQoELedger()
        with pytest.raises(ConfigurationError):
            ledger.record(level=0, indicator=0, delay=0.5)

    def test_variance_matches_numpy(self):
        ledger = UserQoELedger()
        rng = np.random.default_rng(0)
        viewed = []
        for _ in range(200):
            level = int(rng.integers(1, 7))
            indicator = int(rng.uniform() < 0.9)
            ledger.record(level, indicator, float(rng.uniform(0, 2)))
            viewed.append(level * indicator)
        assert ledger.quality_variance() == pytest.approx(float(np.var(viewed)))
        assert ledger.mean_viewed_quality() == pytest.approx(float(np.mean(viewed)))

    def test_qoe_formula(self):
        """QoE_n(T) = sum viewed - alpha*sum delay - beta*T*var."""
        ledger = UserQoELedger()
        records = [(3, 1, 0.5), (5, 1, 1.0), (4, 0, 0.2)]
        for level, ind, delay in records:
            ledger.record(level, ind, delay)
        viewed = [3.0, 5.0, 0.0]
        weights = QoEWeights(alpha=0.1, beta=0.5)
        expected = (
            sum(viewed)
            - 0.1 * (0.5 + 1.0 + 0.2)
            - 0.5 * 3 * float(np.var(viewed))
        )
        assert ledger.qoe(weights) == pytest.approx(expected)
        assert ledger.qoe_per_slot(weights) == pytest.approx(expected / 3)

    def test_higher_alpha_penalises_delay_more(self):
        ledger = UserQoELedger()
        ledger.record(3, 1, 2.0)
        assert ledger.qoe(QoEWeights(1.0, 0.0)) < ledger.qoe(QoEWeights(0.1, 0.0))

    def test_validation(self):
        ledger = UserQoELedger()
        with pytest.raises(ConfigurationError):
            ledger.record(-1, 0, 0.0)
        with pytest.raises(ConfigurationError):
            ledger.record(1, 2, 0.0)
        with pytest.raises(ConfigurationError):
            ledger.record(1, 1, -0.1)

    def test_reset(self):
        ledger = UserQoELedger()
        ledger.record(3, 1, 0.5)
        ledger.reset()
        assert ledger.horizon == 0


class _ListLedger(UserQoELedger):
    """The ledger with plain-list columns, as it was before packing."""

    def __init__(self):
        super().__init__()
        self._viewed, self._levels, self._delays = [], [], []


class TestPackedLedger:
    def _feed(self, ledger, seed):
        rng = np.random.default_rng(seed)
        for _ in range(500):
            level = int(rng.integers(0, 7))
            indicator = int(rng.integers(0, 2))
            delay = float(rng.uniform(0, 3)) if level > 0 else 0.0
            ledger.record(level, indicator, delay)
        return ledger

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_list_backed_ledger(self, seed):
        weights = QoEWeights(0.1, 0.5)
        packed = self._feed(UserQoELedger(), seed)
        listed = self._feed(_ListLedger(), seed)
        assert packed.export_state() == listed.export_state()
        assert packed.qoe(weights) == listed.qoe(weights)
        assert packed.mean_allocated_level() == listed.mean_allocated_level()
        assert packed.viewed_qualities == listed.viewed_qualities
        assert packed.allocated_levels == listed.allocated_levels
        assert packed.delays == listed.delays

    @pytest.mark.parametrize("seed", range(3))
    def test_restore_round_trip(self, seed):
        weights = QoEWeights(0.1, 0.5)
        listed = self._feed(_ListLedger(), seed)
        restored = UserQoELedger()
        restored.restore_state(self._feed(UserQoELedger(), seed).export_state())
        assert restored.export_state() == listed.export_state()
        assert restored.qoe(weights) == listed.qoe(weights)
        assert restored.quality_variance() == listed.quality_variance()
        assert all(
            type(level) is int and type(ind) is int and type(delay) is float
            for level, ind, delay in restored.export_state()
        )


class TestSystemQoE:
    def test_sums_over_users(self):
        weights = QoEWeights(0.1, 0.5)
        ledgers = [UserQoELedger() for _ in range(3)]
        for ledger in ledgers:
            ledger.record(4, 1, 0.5)
        assert system_qoe(ledgers, weights) == pytest.approx(
            3 * ledgers[0].qoe(weights)
        )

    def test_empty(self):
        assert system_qoe([], QoEWeights(0.1, 0.5)) == 0.0

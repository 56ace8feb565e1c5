"""Tests for the QoE definition of Section II."""

import json
import math

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
        assert ledger.horizon == 1
        assert ledger.mean_viewed_quality() == 0.0
        assert ledger.export_state()["sum_viewed"] == 0.0

    def test_skip_with_delay_rejected(self):
        ledger = UserQoELedger()
        with pytest.raises(ConfigurationError):
            ledger.record(level=0, indicator=0, delay=0.5)

    @pytest.mark.parametrize("delay", [-0.1, float("nan"), float("inf")])
    def test_delay_must_be_finite_and_non_negative(self, delay):
        ledger = UserQoELedger()
        with pytest.raises(ConfigurationError):
            ledger.record(level=3, indicator=1, delay=delay)
        assert ledger.horizon == 0

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


class _ListLedger:
    """The ledger as it was before running accumulators: per-slot lists.

    Every query is computed the way the list-backed ledger computed
    it (running float sums in record order, the level mean from the
    stored levels), so the accumulator ledger must equal it exactly.
    """

    def __init__(self):
        self.viewed, self.levels = [], []
        self.sum_viewed = self.sum_viewed_sq = self.sum_delay = 0.0

    def record(self, level, indicator, delay):
        viewed = float(level * (indicator if level > 0 else 0))
        self.viewed.append(viewed)
        self.levels.append(level)
        self.sum_viewed += viewed
        self.sum_viewed_sq += viewed * viewed
        self.sum_delay += delay

    def queries(self, weights):
        t = len(self.viewed)
        if t == 0:
            return (0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        mean = self.sum_viewed / t
        variance = max(self.sum_viewed_sq / t - mean * mean, 0.0)
        qoe = (
            self.sum_viewed
            - weights.alpha * self.sum_delay
            - weights.beta * t * variance
        )
        return (
            t,
            mean,
            sum(self.levels) / t,
            self.sum_delay / t,
            variance,
            qoe,
            qoe / t,
        )


def _queries(ledger, weights):
    return (
        ledger.horizon,
        ledger.mean_viewed_quality(),
        ledger.mean_allocated_level(),
        ledger.mean_delay(),
        ledger.quality_variance(),
        ledger.qoe(weights),
        ledger.qoe_per_slot(weights),
    )


def _feed(seed, count=500):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        level = int(rng.integers(0, 7))
        indicator = int(rng.integers(0, 2))
        delay = float(rng.uniform(0, 3)) if level > 0 else 0.0
        yield level, indicator, delay


class TestPackedLedger:
    """The accumulator ledger against the list-backed one it replaced."""

    WEIGHTS = QoEWeights(0.1, 0.5)

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_list_backed_ledger(self, seed):
        # Every query, compared with ``==`` after every record.
        ledger, listed = UserQoELedger(), _ListLedger()
        assert _queries(ledger, self.WEIGHTS) == listed.queries(self.WEIGHTS)
        for level, indicator, delay in _feed(seed):
            ledger.record(level, indicator, delay)
            listed.record(level, indicator, delay)
            assert _queries(ledger, self.WEIGHTS) == listed.queries(self.WEIGHTS)
        assert ledger.export_state() == {
            "horizon": 500,
            "sum_levels": sum(listed.levels),
            "sum_viewed": listed.sum_viewed,
            "sum_viewed_sq": listed.sum_viewed_sq,
            "sum_delay": listed.sum_delay,
        }

    @pytest.mark.parametrize("seed", range(3))
    def test_restore_round_trip(self, seed):
        source, listed = UserQoELedger(), _ListLedger()
        for row in _feed(seed):
            source.record(*row)
            listed.record(*row)
        restored = UserQoELedger()
        restored.record(3, 1, 0.5)  # overwritten, not added to
        restored.restore_state(json.loads(json.dumps(source.export_state())))
        assert restored.export_state() == source.export_state()
        assert _queries(restored, self.WEIGHTS) == listed.queries(self.WEIGHTS)
        state = restored.export_state()
        assert type(state["horizon"]) is int and type(state["sum_levels"]) is int
        # The restored ledger keeps accumulating like the original.
        source.record(5, 1, 0.25)
        restored.record(5, 1, 0.25)
        assert _queries(restored, self.WEIGHTS) == _queries(source, self.WEIGHTS)

    @pytest.mark.parametrize(
        "change",
        [
            {"horizon": None},
            {"sum_delay": None},
            {"horizon": True},
            {"sum_viewed": False},
            {"horizon": 3.0},
            {"sum_levels": "12"},
            {"horizon": -1},
            {"sum_levels": -4},
            {"sum_viewed": math.nan},
            {"sum_viewed_sq": math.inf},
            {"sum_delay": -0.5},
            {"horizon": 0},
            {"sum_viewed": 13.0},
        ],
        ids=[
            "missing-horizon", "missing-sum-delay", "bool-horizon",
            "bool-sum", "float-horizon", "string-levels", "negative-horizon",
            "negative-levels", "nan-sum", "inf-sum", "negative-sum",
            "empty-with-sums", "viewed-above-levels",
        ],
    )
    def test_malformed_state_refused_and_ledger_kept(self, change):
        ledger = UserQoELedger()
        for row in ((4, 1, 0.5), (3, 0, 0.25), (5, 1, 1.0)):
            ledger.record(*row)
        state = ledger.export_state()
        assert state["sum_levels"] == 12
        for key, value in change.items():
            if value is None:
                del state[key]
            else:
                state[key] = value
        target = UserQoELedger()
        target.record(2, 1, 0.125)
        before = target.export_state()
        with pytest.raises(ConfigurationError):
            target.restore_state(state)
        assert target.export_state() == before

    def test_empty_state_restores_an_empty_ledger(self):
        ledger = UserQoELedger()
        ledger.record(4, 1, 0.5)
        ledger.restore_state(UserQoELedger().export_state())
        assert _queries(ledger, self.WEIGHTS) == (0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


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

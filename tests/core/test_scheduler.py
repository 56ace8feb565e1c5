"""Tests for the online scheduler state machine."""

import pytest

from repro.core.allocation import DensityValueGreedyAllocator
from repro.core.qoe import QoEWeights
from repro.core.scheduler import CollaborativeVrScheduler
from repro.errors import ConfigurationError
from repro.simulation.delaymodel import MM1DelayModel

SIZES = (10.0, 16.0, 26.0, 42.0, 68.0, 110.0)


def make_scheduler(num_users=2, **kwargs):
    return CollaborativeVrScheduler(
        num_users,
        DensityValueGreedyAllocator(),
        QoEWeights(0.02, 0.5),
        **kwargs,
    )


def slot_inputs(scheduler, caps=(60.0, 60.0), budget=108.0):
    model = MM1DelayModel()
    return scheduler.build_slot_problem(
        sizes=[SIZES] * scheduler.num_users,
        delays=[model.delays(SIZES, c) for c in caps],
        caps_mbps=list(caps),
        budget_mbps=budget,
    )


class TestScheduler:
    def test_initial_state(self):
        scheduler = make_scheduler()
        assert scheduler.current_slot == 1
        assert scheduler.qbar(0) == 0.0
        assert 0.0 < scheduler.delta(0) <= 1.0

    def test_record_outcomes_updates_state(self):
        scheduler = make_scheduler()
        scheduler.record_outcomes([4, 2], [1, 0], [0.5, 0.3])
        assert scheduler.current_slot == 2
        assert scheduler.qbar(0) == 4.0
        assert scheduler.qbar(1) == 0.0
        assert scheduler.ledgers[0].horizon == 1

    def test_qbar_is_running_mean_of_viewed(self):
        scheduler = make_scheduler()
        scheduler.record_outcomes([4, 2], [1, 1], [0.0, 0.0])
        scheduler.record_outcomes([2, 2], [1, 1], [0.0, 0.0])
        assert scheduler.qbar(0) == pytest.approx(3.0)

    def test_skipped_slot_does_not_update_delta(self):
        scheduler = make_scheduler()
        before = scheduler.delta(0)
        scheduler.record_outcomes([0, 3], [0, 1], [0.0, 0.1])
        assert scheduler.delta(0) == before
        assert scheduler.delta(1) != before or scheduler.delta(1) == before
        # But qbar does see the zero view.
        assert scheduler.qbar(0) == 0.0

    def test_misses_lower_delta_estimate(self):
        scheduler = make_scheduler()
        before = scheduler.delta(0)
        for _ in range(20):
            scheduler.record_outcomes([3, 3], [0, 1], [0.1, 0.1])
        assert scheduler.delta(0) < before
        assert scheduler.delta(1) > scheduler.delta(0)

    def test_build_slot_problem_wires_state(self):
        scheduler = make_scheduler()
        scheduler.record_outcomes([4, 2], [1, 1], [0.5, 0.3])
        problem = slot_inputs(scheduler)
        assert problem.t == 2
        assert problem.qbar[0] == 4.0
        assert problem.caps_mbps[0] == 60.0

    def test_build_slot_problem_raw_caps(self):
        scheduler = make_scheduler()
        model = MM1DelayModel()
        problem = scheduler.build_slot_problem(
            [SIZES] * 2,
            [model.delays(SIZES, 60.0)] * 2,
            [50.0, 50.0],
            108.0,
            raw_caps_mbps=[58.0, 59.0],
        )
        assert problem.raw_caps_mbps[0] == 58.0
        assert problem.caps_mbps[1] == 50.0

    def test_allocate_and_record_cycle(self):
        scheduler = make_scheduler()
        for _ in range(5):
            problem = slot_inputs(scheduler)
            levels = scheduler.allocate(problem)
            assert problem.is_feasible(levels)
            scheduler.record_outcomes(levels, [1] * 2, [0.1] * 2)
        assert scheduler.current_slot == 6
        assert scheduler.total_qoe() > 0

    def test_input_length_validation(self):
        scheduler = make_scheduler()
        row = MM1DelayModel().delays(SIZES, 60.0)
        with pytest.raises(ConfigurationError):
            scheduler.build_slot_problem([SIZES], [row] * 2, [60.0, 60.0], 100.0)
        with pytest.raises(ConfigurationError):
            scheduler.record_outcomes([1], [1, 1], [0.0, 0.0])
        with pytest.raises(ConfigurationError):
            scheduler.build_slot_problem(
                [SIZES] * 2, [row] * 2, [60.0, 60.0], 100.0,
                raw_caps_mbps=[58.0],
            )

    def test_reset(self):
        scheduler = make_scheduler()
        scheduler.record_outcomes([4, 2], [1, 1], [0.5, 0.3])
        scheduler.reset()
        assert scheduler.current_slot == 1
        assert scheduler.qbar(0) == 0.0
        assert scheduler.ledgers[0].horizon == 0

    def test_rejects_zero_users(self):
        with pytest.raises(ConfigurationError):
            make_scheduler(num_users=0)

    @pytest.mark.parametrize(
        "change",
        [
            {"qbar_mean": float("nan")},
            {"qbar_mean": -5.0},
            {"accuracy_successes": 99},
            {"ledger": [[4, 1, 0.5], [3, 1, float("inf")]]},
            {"ledger": {"horizon": 1, "sum_levels": 4, "sum_viewed": 4.0,
                        "sum_viewed_sq": 16.0, "sum_delay": float("inf")}},
            {"ledger": {"horizon": 1, "sum_levels": 4, "sum_viewed": 5.0,
                        "sum_viewed_sq": 25.0, "sum_delay": 0.5}},
            {"ledger": {"horizon": 1, "sum_levels": 4, "sum_viewed": 4.0,
                        "sum_viewed_sq": 16.0}},
            {"ledger": "4,1,0.5"},
            # A per-slot transcript, however well formed, is not the
            # accumulator object export_user writes.
            {"ledger": [[4, 1, 0.5], [2, 0, 0.3]]},
        ],
    )
    def test_refused_import_restores_nothing(self, change):
        source = make_scheduler()
        source.record_outcomes([4, 2], [1, 0], [0.5, 0.3])
        state = {**source.export_user(0), **change}
        target = make_scheduler()
        target.record_outcomes([3, 3], [0, 1], [0.2, 0.1])
        before = target.export_user(0)
        with pytest.raises(ConfigurationError):
            target.import_user(0, state)
        assert target.export_user(0) == before


class TestLedgerHandoffForms:
    ROWS = [(4, 1, 0.5), (3, 0, 0.25), (0, 0, 0.0), (5, 1, 1.125), (2, 1, 0.0)]

    def _source(self):
        source = make_scheduler()
        for level, indicator, delay in self.ROWS:
            source.record_outcomes([level, 1], [indicator, 1], [delay, 0.1])
        return source

    def test_export_carries_the_five_accumulators(self):
        ledger = self._source().export_user(0)["ledger"]
        assert ledger == {
            "horizon": 5,
            "sum_levels": 14,
            "sum_viewed": 11.0,
            "sum_viewed_sq": 45.0,
            "sum_delay": 0.5 + 0.25 + 1.125,
        }

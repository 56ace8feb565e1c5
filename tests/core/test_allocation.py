"""Tests for SlotProblem and the Algorithm 1 allocators."""

import pytest

from repro.core.allocation import (
    DensityGreedyAllocator,
    DensityValueGreedyAllocator,
    SlotProblem,
    UserSlotState,
    ValueGreedyAllocator,
)
from repro.core.offline import OfflineOptimalAllocator
from repro.core.qoe import QoEWeights
from repro.errors import ConfigurationError
from repro.simulation.delaymodel import MM1DelayModel

SIZES = (10.0, 16.0, 26.0, 42.0, 68.0, 110.0)


def make_user(cap=60.0, qbar=2.0, delta=0.9, sizes=SIZES, bandwidth=None):
    model = MM1DelayModel()
    return UserSlotState(
        sizes=sizes,
        delays=model.delays(sizes, bandwidth if bandwidth is not None else cap),
        delta=delta,
        qbar=qbar,
        cap_mbps=cap,
    )


def make_problem(num_users=3, budget=108.0, t=5, allow_skip=False, **user_kw):
    return SlotProblem.from_users(
        t=t,
        users=tuple(make_user(**user_kw) for _ in range(num_users)),
        budget_mbps=budget,
        weights=QoEWeights(alpha=0.02, beta=0.5),
        allow_skip=allow_skip,
    )


class TestUserSlotState:
    def test_raw_cap_defaults_to_cap(self):
        user = make_user(cap=50.0)
        assert user.raw_cap_mbps == 50.0

    def test_raw_cap_explicit(self):
        model = MM1DelayModel()
        user = UserSlotState(
            sizes=SIZES, delays=model.delays(SIZES, 60.0), delta=0.9,
            qbar=2.0, cap_mbps=50.0, raw_cap_mbps=58.0,
        )
        assert user.raw_cap_mbps == 58.0

    def test_validation(self):
        delays = MM1DelayModel().delays(SIZES, 60.0)
        with pytest.raises(ConfigurationError):
            UserSlotState(tuple(), tuple(), 0.9, 2.0, 60.0)
        with pytest.raises(ConfigurationError):
            UserSlotState(SIZES, delays, 1.5, 2.0, 60.0)
        with pytest.raises(ConfigurationError):
            UserSlotState(SIZES, delays, 0.9, -1.0, 60.0)
        with pytest.raises(ConfigurationError):
            UserSlotState(SIZES, delays, 0.9, 2.0, -1.0)
        # A delay row must cover every level.
        with pytest.raises(ConfigurationError):
            UserSlotState(SIZES, delays[:-1], 0.9, 2.0, 60.0)


class TestSlotProblem:
    def test_properties(self):
        problem = make_problem()
        assert problem.num_users == 3
        assert problem.num_levels == 6

    def test_objective_curve_matches_slot_objective(self):
        from repro.core.decomposition import slot_objective

        problem = make_problem(num_users=1)
        curve = problem.objective_curve(0)
        for level in range(1, 7):
            expected = slot_objective(
                level, problem.t, problem.qbar[0], problem.delta[0],
                problem.weights.alpha, problem.weights.beta,
                MM1DelayModel().delay(
                    problem.sizes[0, level - 1], problem.caps_mbps[0]
                ),
            )
            assert curve[level - 1] == pytest.approx(expected)

    def test_objective_value_and_total_rate(self):
        problem = make_problem(num_users=2)
        levels = [2, 3]
        value = problem.objective_value(levels)
        expected = problem.objective_curve(0)[1] + problem.objective_curve(1)[2]
        assert value == pytest.approx(expected)
        assert problem.total_rate(levels) == pytest.approx(16.0 + 26.0)

    def test_objective_value_with_skip(self):
        problem = make_problem(num_users=2, allow_skip=True)
        value = problem.objective_value([0, 1])
        assert value == pytest.approx(
            problem.skip_value(0) + problem.objective_curve(1)[0]
        )

    def test_is_feasible(self):
        problem = make_problem(num_users=2, budget=30.0)
        assert problem.is_feasible([1, 1])
        assert not problem.is_feasible([3, 1])  # budget
        assert not problem.is_feasible([7, 1])  # level range
        assert not problem.is_feasible([0, 1])  # skip without allow_skip

    def test_to_knapsack_mapping(self):
        problem = make_problem(num_users=2)
        knapsack = problem.to_knapsack()
        assert knapsack.num_items == 2
        assert knapsack.items[0].weights == SIZES
        assert knapsack.budget == problem.budget_mbps
        assert not knapsack.allow_skip

    def test_to_knapsack_with_skip(self):
        problem = make_problem(num_users=2, allow_skip=True, qbar=3.0)
        knapsack = problem.to_knapsack()
        assert knapsack.allow_skip
        assert knapsack.skip_values[0] == pytest.approx(problem.skip_value(0))
        assert knapsack.skip_values[0] < 0  # variance penalty of viewing 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_problem(t=0)
        with pytest.raises(ConfigurationError):
            SlotProblem.from_users(1, tuple(), 10.0, QoEWeights(0.1, 0.5))
        with pytest.raises(ConfigurationError):
            make_problem(budget=-1.0)
        problem = make_problem(num_users=2)
        with pytest.raises(ConfigurationError):
            problem.objective_value([1])


class TestAllocators:
    @pytest.mark.parametrize(
        "allocator_cls",
        [DensityValueGreedyAllocator, DensityGreedyAllocator, ValueGreedyAllocator],
    )
    def test_allocation_feasible(self, allocator_cls):
        problem = make_problem(budget=80.0)
        levels = allocator_cls().allocate(problem)
        assert len(levels) == problem.num_users
        assert problem.is_feasible(levels)

    def test_combined_at_least_each_half(self):
        problem = make_problem(budget=90.0)
        combined = DensityValueGreedyAllocator().allocate(problem)
        dens = DensityGreedyAllocator().allocate(problem)
        val = ValueGreedyAllocator().allocate(problem)
        v_combined = problem.objective_value(combined)
        assert v_combined >= problem.objective_value(dens) - 1e-9
        assert v_combined >= problem.objective_value(val) - 1e-9

    def test_combined_within_half_of_optimal(self):
        """Theorem 1 on a realistic slot problem."""
        problem = make_problem(budget=90.0)
        greedy = DensityValueGreedyAllocator().allocate(problem)
        optimal = OfflineOptimalAllocator().allocate(problem)
        v_greedy = problem.objective_value(greedy)
        v_opt = problem.objective_value(optimal)
        assert v_greedy >= 0.5 * v_opt - 1e-9

    def test_everyone_at_least_level_one_without_skip(self):
        problem = make_problem(budget=200.0)
        levels = DensityValueGreedyAllocator().allocate(problem)
        assert all(level >= 1 for level in levels)

    def test_tight_budget_keeps_base(self):
        problem = make_problem(num_users=3, budget=30.0)
        levels = DensityValueGreedyAllocator().allocate(problem)
        assert levels == [1, 1, 1]

    def test_loose_budget_upgrades(self):
        problem = make_problem(num_users=2, budget=500.0, cap=200.0, bandwidth=300.0)
        levels = DensityValueGreedyAllocator().allocate(problem)
        assert all(level >= 3 for level in levels)

    def test_variance_term_anchors_to_qbar(self):
        """High beta pins allocations near the running viewed mean."""
        low_anchor = make_problem(num_users=1, budget=500.0, cap=200.0,
                                  bandwidth=400.0, qbar=1.0, t=100)
        high_anchor = make_problem(num_users=1, budget=500.0, cap=200.0,
                                   bandwidth=400.0, qbar=5.0, t=100)
        level_low = DensityValueGreedyAllocator().allocate(low_anchor)[0]
        level_high = DensityValueGreedyAllocator().allocate(high_anchor)[0]
        assert level_high > level_low

    def test_skip_chosen_when_cap_below_base(self):
        problem = SlotProblem.from_users(
            t=5,
            users=(make_user(cap=5.0),),
            budget_mbps=100.0,
            weights=QoEWeights(0.02, 0.5),
            allow_skip=True,
        )
        levels = DensityValueGreedyAllocator().allocate(problem)
        assert levels == [0]

    def test_allocator_names(self):
        assert DensityValueGreedyAllocator().name == "density-value-greedy"
        assert DensityGreedyAllocator().name == "density-greedy"
        assert ValueGreedyAllocator().name == "value-greedy"

"""Tests for the uniform and max-min-fair sanity baselines."""

import pytest

from repro.core.baselines import MaxMinFairAllocator, UniformAllocator
from repro.core import DensityValueGreedyAllocator
from repro.errors import InfeasibleAllocationError
from tests.core.test_allocation import make_problem


class TestUniformAllocator:
    def test_everyone_same_level(self):
        problem = make_problem(num_users=4, budget=120.0)
        levels = UniformAllocator().allocate(problem)
        assert len(set(levels)) == 1
        assert problem.is_feasible(levels)

    def test_highest_feasible_common_level(self):
        # Budget 3 x 26 = 78 allows level 3 for all; level 4 (3 x 42)
        # does not.
        problem = make_problem(num_users=3, budget=80.0, cap=60.0)
        assert UniformAllocator().allocate(problem) == [3, 3, 3]

    def test_cap_binds_common_level(self):
        problem = make_problem(num_users=2, budget=1000.0, cap=20.0,
                               bandwidth=60.0)
        assert UniformAllocator().allocate(problem) == [2, 2]

    def test_infeasible_raises(self):
        problem = make_problem(num_users=3, budget=20.0)
        with pytest.raises(InfeasibleAllocationError):
            UniformAllocator().allocate(problem)

    def test_skip_fallback(self):
        problem = make_problem(num_users=3, budget=20.0, allow_skip=True)
        assert UniformAllocator().allocate(problem) == [0, 0, 0]


class TestMaxMinFairAllocator:
    def test_feasible(self):
        problem = make_problem(num_users=4, budget=120.0)
        levels = MaxMinFairAllocator().allocate(problem)
        assert problem.is_feasible(levels)

    def test_levels_balanced(self):
        problem = make_problem(num_users=4, budget=120.0)
        levels = MaxMinFairAllocator().allocate(problem)
        assert max(levels) - min(levels) <= 1

    def test_caps_can_unbalance(self):
        # One capped user cannot follow; others may pass it.
        from repro.core.allocation import SlotProblem, UserSlotState
        from repro.core.qoe import QoEWeights
        from repro.simulation.delaymodel import MM1DelayModel
        from tests.core.test_allocation import SIZES

        model = MM1DelayModel()
        users = (
            UserSlotState(SIZES, model.delays(SIZES, 80.0), 0.9, 2.0, 12.0),
            UserSlotState(SIZES, model.delays(SIZES, 80.0), 0.9, 2.0, 80.0),
        )
        problem = SlotProblem.from_users(3, users, 100.0, QoEWeights(0.02, 0.5))
        levels = MaxMinFairAllocator().allocate(problem)
        assert levels[0] == 1  # capped at 12 Mbps -> only level 1 fits
        assert levels[1] > 1

    def test_infeasible_base_raises(self):
        problem = make_problem(num_users=4, budget=20.0)
        with pytest.raises(InfeasibleAllocationError):
            MaxMinFairAllocator().allocate(problem)

    def test_skip_degradation(self):
        problem = make_problem(num_users=4, budget=25.0, allow_skip=True)
        levels = MaxMinFairAllocator().allocate(problem)
        assert problem.is_feasible(levels)
        assert levels.count(0) == 2

    def test_algorithm1_beats_sanity_baselines_on_qoe(self):
        """The principled objective must dominate QoE-blind fairness."""
        problem = make_problem(num_users=4, budget=110.0, qbar=2.5, t=30)
        ours = problem.objective_value(
            DensityValueGreedyAllocator().allocate(problem)
        )
        uniform = problem.objective_value(UniformAllocator().allocate(problem))
        maxmin = problem.objective_value(
            MaxMinFairAllocator().allocate(problem)
        )
        assert ours >= uniform - 1e-9
        assert ours >= maxmin - 1e-9

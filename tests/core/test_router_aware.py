"""Tests for router-aware slot problems (per-router budgets)."""

import pytest

from repro.core.allocation import (
    DensityValueGreedyAllocator,
    SlotProblem,
    UserSlotState,
)
from repro.core.offline import OfflineOptimalAllocator
from repro.core.qoe import QoEWeights
from repro.errors import ConfigurationError
from repro.simulation.delaymodel import MM1DelayModel

SIZES = (10.0, 16.0, 26.0, 42.0)


def make_problem(router_budgets, budget=1000.0, n=4):
    model = MM1DelayModel()
    users = tuple(
        UserSlotState(
            sizes=SIZES,
            delays=model.delays(SIZES, 100.0),
            delta=0.95,
            qbar=2.0,
            cap_mbps=80.0,
        )
        for _ in range(n)
    )
    return SlotProblem.from_users(
        t=5,
        users=users,
        budget_mbps=budget,
        weights=QoEWeights(0.02, 0.5),
        router_of=tuple(i % len(router_budgets) for i in range(n)),
        router_budgets_mbps=tuple(router_budgets),
    )


class TestRouterAwareSlotProblem:
    def test_validation(self):
        model = MM1DelayModel()
        user = UserSlotState(SIZES, model.delays(SIZES, 100.0), 0.95, 2.0, 80.0)
        with pytest.raises(ConfigurationError):
            SlotProblem.from_users(
                1, (user,), 100.0, QoEWeights(0.02, 0.5), router_of=(0,)
            )
        with pytest.raises(ConfigurationError):
            SlotProblem.from_users(
                1, (user,), 100.0, QoEWeights(0.02, 0.5),
                router_of=(0, 0), router_budgets_mbps=(50.0,),
            )

    def test_is_feasible_checks_routers(self):
        problem = make_problem(router_budgets=(30.0, 1000.0))
        # Router 0 carries users 0 and 2: two level-2 = 32 > 30.
        assert not problem.is_feasible([2, 1, 2, 1])
        assert problem.is_feasible([1, 2, 1, 2])

    def test_greedy_respects_router_budgets(self):
        problem = make_problem(router_budgets=(25.0, 1000.0))
        levels = DensityValueGreedyAllocator().allocate(problem)
        assert problem.is_feasible(levels)
        # Router 1's users got more than router 0's congested pair.
        assert levels[1] + levels[3] > levels[0] + levels[2]

    def test_exact_respects_router_budgets(self):
        problem = make_problem(router_budgets=(30.0, 60.0), budget=85.0)
        levels = OfflineOptimalAllocator().allocate(problem)
        assert problem.is_feasible(levels)

    def test_exact_dominates_greedy(self):
        problem = make_problem(router_budgets=(35.0, 55.0), budget=85.0)
        greedy = DensityValueGreedyAllocator().allocate(problem)
        optimal = OfflineOptimalAllocator().allocate(problem)
        assert problem.objective_value(optimal) >= (
            problem.objective_value(greedy) - 1e-9
        )

    def test_router_budget_tightens_allocation(self):
        loose = make_problem(router_budgets=(1000.0, 1000.0))
        tight = make_problem(router_budgets=(25.0, 25.0))
        loose_levels = DensityValueGreedyAllocator().allocate(loose)
        tight_levels = DensityValueGreedyAllocator().allocate(tight)
        assert sum(tight_levels) < sum(loose_levels)


class TestRouterAwareSystem:
    def test_experiment_runs_router_aware(self):
        from dataclasses import replace

        from repro.system import SystemExperiment, setup2_config
        from repro.system.experiment import scaled_config

        config = replace(
            scaled_config(setup2_config(seed=3), duration_slots=180),
            router_aware=True,
        )
        result = SystemExperiment(config).run_repeat(
            DensityValueGreedyAllocator(), 0
        )
        assert result.num_users == 15
        for user in result.users:
            assert user.fps is not None

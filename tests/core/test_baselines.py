"""Tests for the Firefly and PAVQ baseline allocators."""

import pytest

from repro.core.allocation import SlotProblem, UserSlotState
from repro.core.baselines import FireflyAllocator, PavqAllocator
from repro.core.qoe import QoEWeights
from repro.errors import InfeasibleAllocationError
from repro.simulation.delaymodel import MM1DelayModel
from tests.core.test_allocation import SIZES, make_problem, make_user


class TestFirefly:
    def test_feasible(self):
        problem = make_problem(num_users=4, budget=120.0)
        levels = FireflyAllocator().allocate(problem)
        assert problem.is_feasible(levels)

    def test_max_fills_raw_cap(self):
        """With a loose server budget, Firefly rides the raw estimate."""
        problem = make_problem(num_users=1, budget=1000.0, cap=45.0)
        levels = FireflyAllocator().allocate(problem)
        # Largest size <= 45 is level 4 (42).
        assert levels == [4]

    def test_uses_raw_cap_not_discounted(self):
        model = MM1DelayModel()
        user = UserSlotState(
            sizes=SIZES, delays=model.delays(SIZES, 60.0), delta=0.9,
            qbar=2.0, cap_mbps=20.0, raw_cap_mbps=45.0,
        )
        problem = SlotProblem.from_users(5, (user,), 1000.0, QoEWeights(0.02, 0.5))
        assert FireflyAllocator().allocate(problem) == [4]

    def test_lru_rotation_under_scarcity(self):
        """When the server budget binds, upgrades rotate across users."""
        allocator = FireflyAllocator()
        # Budget: all bases (3 x 10) + one upgrade to level 4 (+32).
        winners = []
        for _ in range(3):
            problem = make_problem(num_users=3, budget=64.0, cap=45.0)
            levels = allocator.allocate(problem)
            upgraded = [n for n, level in enumerate(levels) if level > 1]
            winners.extend(upgraded)
        # Different users win across slots (LRU moves winners back).
        assert len(set(winners)) >= 2

    def test_everyone_gets_base_first(self):
        problem = make_problem(num_users=4, budget=45.0, cap=45.0)
        levels = FireflyAllocator().allocate(problem)
        assert all(level >= 1 for level in levels)

    def test_infeasible_base_raises_without_skip(self):
        problem = make_problem(num_users=4, budget=25.0)
        with pytest.raises(InfeasibleAllocationError):
            FireflyAllocator().allocate(problem)

    def test_infeasible_base_skips_with_skip(self):
        problem = make_problem(num_users=4, budget=25.0, allow_skip=True)
        levels = FireflyAllocator().allocate(problem)
        assert levels.count(0) == 2
        assert problem.is_feasible(levels)

    def test_reset_clears_lru(self):
        allocator = FireflyAllocator()
        allocator.allocate(make_problem(num_users=2, budget=60.0))
        allocator.reset()
        assert allocator._lru == {}  # noqa: SLF001 - intentional state check

    def test_no_delay_or_variance_awareness(self):
        """Firefly ignores qbar/delta entirely: same output regardless."""
        a = make_problem(num_users=2, budget=100.0, qbar=1.0, delta=0.5)
        b = make_problem(num_users=2, budget=100.0, qbar=5.0, delta=1.0)
        assert FireflyAllocator().allocate(a) == FireflyAllocator().allocate(b)


class TestPavq:
    def test_feasible(self):
        problem = make_problem(num_users=4, budget=120.0)
        levels = PavqAllocator().allocate(problem)
        assert problem.is_feasible(levels)

    def test_anchors_to_allocated_mean(self):
        """After a history of level 2, PAVQ resists jumping to 6."""
        allocator = PavqAllocator()
        tight = make_problem(num_users=1, budget=16.0, cap=16.0, bandwidth=60.0)
        for _ in range(50):
            assert allocator.allocate(tight) == [2]
        # Budget opens up: the variance anchor holds it near 2.
        open_problem = make_problem(num_users=1, budget=1000.0, cap=200.0,
                                    bandwidth=400.0)
        level = allocator.allocate(open_problem)[0]
        assert level <= 4

    def test_fresh_allocator_jumps_to_utility_max(self):
        open_problem = make_problem(num_users=1, budget=1000.0, cap=200.0,
                                    bandwidth=400.0)
        level = PavqAllocator().allocate(open_problem)[0]
        assert level >= 4

    def test_repair_respects_budget(self):
        problem = make_problem(num_users=4, budget=50.0, cap=45.0)
        levels = PavqAllocator().allocate(problem)
        assert problem.total_rate(levels) <= 50.0 + 1e-9

    def test_ignores_delta(self):
        """PAVQ pre-dates viewport prediction: delta must not matter."""
        a = make_problem(num_users=2, budget=100.0, delta=0.5)
        b = make_problem(num_users=2, budget=100.0, delta=1.0)
        assert PavqAllocator().allocate(a) == PavqAllocator().allocate(b)

    def test_uses_raw_cap(self):
        model = MM1DelayModel()
        user = UserSlotState(
            sizes=SIZES, delays=model.delays(SIZES, 60.0), delta=0.9,
            qbar=2.0, cap_mbps=12.0, raw_cap_mbps=45.0,
        )
        problem = SlotProblem.from_users(5, (user,), 1000.0, QoEWeights(0.02, 0.5))
        assert PavqAllocator().allocate(problem)[0] >= 1

    def test_infeasible_raises_without_skip(self):
        problem = make_problem(num_users=2, budget=5.0)
        with pytest.raises(InfeasibleAllocationError):
            PavqAllocator().allocate(problem)

    def test_skip_when_nothing_fits(self):
        model = MM1DelayModel()
        user = UserSlotState(
            sizes=SIZES, delays=model.delays(SIZES, 60.0), delta=0.9,
            qbar=2.0, cap_mbps=5.0, raw_cap_mbps=5.0,
        )
        problem = SlotProblem.from_users(
            5, (user,), 100.0, QoEWeights(0.02, 0.5), allow_skip=True
        )
        assert PavqAllocator().allocate(problem) == [0]

    def test_reset(self):
        allocator = PavqAllocator()
        allocator.allocate(make_problem(num_users=1, budget=16.0, cap=16.0))
        allocator.reset()
        assert allocator._t == 0  # noqa: SLF001 - intentional state check

"""Property-based tests over randomly generated slot problems.

Random-but-valid :class:`SlotProblem` instances exercise every
allocator's contract: outputs are always feasible, the combined greedy
dominates its halves, the oracle dominates the greedy, and loosening
the budget never hurts.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import (
    DensityGreedyAllocator,
    DensityValueGreedyAllocator,
    SlotProblem,
    UserSlotState,
    ValueGreedyAllocator,
)
from repro.core.baselines import (
    FireflyAllocator,
    MaxMinFairAllocator,
    PavqAllocator,
    UniformAllocator,
)
from repro.core.offline import OfflineOptimalAllocator
from repro.core.qoe import QoEWeights
from repro.simulation.delaymodel import MM1DelayModel

_MODEL = MM1DelayModel()


@st.composite
def slot_problems(draw, max_users=4):
    num_users = draw(st.integers(1, max_users))
    num_levels = draw(st.integers(2, 5))
    base = draw(st.floats(5.0, 15.0))
    ratio = draw(st.floats(1.2, 1.7))
    sizes = tuple(base * ratio ** k for k in range(num_levels))

    users = []
    for _ in range(num_users):
        cap = draw(st.floats(sizes[0] + 1.0, sizes[-1] * 1.5))
        bandwidth = max(cap, sizes[0] * 2.0) * draw(st.floats(1.0, 2.0))
        users.append(
            UserSlotState(
                sizes=sizes,
                delays=_MODEL.delays(sizes, bandwidth),
                delta=draw(st.floats(0.5, 1.0)),
                qbar=draw(st.floats(0.0, float(num_levels))),
                cap_mbps=cap,
            )
        )
    total_base = sizes[0] * num_users
    total_top = sizes[-1] * num_users
    budget = total_base + draw(st.floats(0.0, 1.0)) * (total_top - total_base)
    t = draw(st.integers(1, 50))
    return SlotProblem.from_users(
        t=t,
        users=tuple(users),
        budget_mbps=budget,
        weights=QoEWeights(alpha=draw(st.floats(0.0, 0.5)),
                           beta=draw(st.floats(0.0, 1.0))),
    )


ALL_ALLOCATORS = [
    DensityValueGreedyAllocator,
    DensityGreedyAllocator,
    ValueGreedyAllocator,
    FireflyAllocator,
    PavqAllocator,
    UniformAllocator,
    MaxMinFairAllocator,
    OfflineOptimalAllocator,
]


@given(slot_problems())
@settings(max_examples=60, deadline=None)
def test_every_allocator_feasible(problem):
    for allocator_cls in ALL_ALLOCATORS:
        levels = allocator_cls().allocate(problem)
        assert problem.is_feasible(levels), allocator_cls.__name__


@given(slot_problems())
@settings(max_examples=60, deadline=None)
def test_combined_dominates_halves(problem):
    combined = problem.objective_value(
        DensityValueGreedyAllocator().allocate(problem)
    )
    dens = problem.objective_value(DensityGreedyAllocator().allocate(problem))
    val = problem.objective_value(ValueGreedyAllocator().allocate(problem))
    assert combined >= max(dens, val) - 1e-9


@given(slot_problems(max_users=3))
@settings(max_examples=40, deadline=None)
def test_oracle_dominates_everyone(problem):
    optimal = problem.objective_value(OfflineOptimalAllocator().allocate(problem))
    for allocator_cls in (DensityValueGreedyAllocator, PavqAllocator):
        value = problem.objective_value(allocator_cls().allocate(problem))
        assert optimal >= value - 1e-7, allocator_cls.__name__


@given(slot_problems(max_users=3), st.floats(1.1, 3.0))
@settings(max_examples=40, deadline=None)
def test_loosening_budget_never_hurts_oracle(problem, factor):
    import dataclasses

    optimal = problem.objective_value(OfflineOptimalAllocator().allocate(problem))
    looser = dataclasses.replace(problem, budget_mbps=problem.budget_mbps * factor)
    optimal_loose = looser.objective_value(
        OfflineOptimalAllocator().allocate(looser)
    )
    assert optimal_loose >= optimal - 1e-9


@given(slot_problems())
@settings(max_examples=40, deadline=None)
def test_theorem1_gain_bound_on_random_slot_problems(problem):
    if problem.num_users > 3:
        return  # keep the oracle tractable under hypothesis budgets
    base = problem.objective_value([1] * problem.num_users)
    greedy = problem.objective_value(
        DensityValueGreedyAllocator().allocate(problem)
    )
    optimal = problem.objective_value(OfflineOptimalAllocator().allocate(problem))
    assert greedy - base >= 0.5 * (optimal - base) - 1e-7
    assert not math.isnan(greedy)

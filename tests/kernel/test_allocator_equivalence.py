"""ArrayAllocator vs the object heap allocator on real slot problems.

The solver differential covers the knapsack layer; these tests cover
the layer above it — eq. (9) gain construction, M/M/1 delays, skip
options, router groups — by allocating the *same* random
:class:`~repro.core.allocation.SlotProblem` through both allocators
and demanding identical level lists.
"""

import numpy as np
import pytest

from repro.core.allocation import (
    DensityValueGreedyAllocator,
    SlotProblem,
    UserSlotState,
)
from repro.core.qoe import QoEWeights
from repro.core.scheduler import CollaborativeVrScheduler
from repro.errors import ConfigurationError
from repro.kernel import ArrayAllocator, SlotBatch, mm1_delay_matrix
from repro.simulation.delaymodel import MM1DelayModel

NUM_ROUNDS = 200
SEED = 20220806

WEIGHTS = QoEWeights(alpha=0.02, beta=0.5)


def _random_problem(rng, model):
    n = int(rng.integers(1, 12))
    num_levels = int(rng.integers(2, 7))
    t = int(rng.integers(1, 50))
    users = []
    for _ in range(n):
        base = float(rng.uniform(0.5, 3.0))
        sizes = tuple(base * 1.5**k for k in range(num_levels))
        cap = float(rng.uniform(5.0, 100.0))
        users.append(
            UserSlotState(
                sizes=sizes,
                delays=model.delays(sizes, cap),
                delta=float(rng.uniform(0.0, 1.0)),
                qbar=float(rng.uniform(0.0, num_levels)),
                cap_mbps=cap,
            )
        )
    base_total = sum(u.sizes[0] for u in users)
    top_total = sum(u.sizes[-1] for u in users)
    budget = base_total + float(rng.uniform(0.0, 1.0)) * (top_total - base_total)
    router_of = None
    router_budgets = None
    if rng.integers(0, 2):
        num_routers = int(rng.integers(1, 3))
        router_of = tuple(int(x) for x in rng.integers(0, num_routers, size=n))
        router_budgets = tuple(
            float(budget * rng.uniform(0.4, 1.0)) for _ in range(num_routers)
        )
    return SlotProblem(
        t=t,
        users=tuple(users),
        budget_mbps=budget,
        weights=WEIGHTS,
        allow_skip=bool(rng.integers(0, 2)),
        router_of=router_of,
        router_budgets_mbps=router_budgets,
    )


def test_allocators_identical_over_random_slots():
    rng = np.random.default_rng(SEED)
    model = MM1DelayModel()
    heap_alloc = DensityValueGreedyAllocator()
    array_alloc = ArrayAllocator()
    for round_index in range(NUM_ROUNDS):
        problem = _random_problem(rng, model)
        try:
            want = heap_alloc.allocate(problem)
        except Exception as exc:
            # Infeasible draws must fail identically on both paths.
            with pytest.raises(type(exc)):
                array_alloc.allocate(problem)
            continue
        got = array_alloc.allocate(problem)
        assert got == want, f"round {round_index}: {got} != {want}"
    assert array_alloc.fallbacks == 0


def test_ragged_menu_falls_back_to_heap():
    model = MM1DelayModel()
    users = (
        UserSlotState(
            sizes=(1.0, 2.0, 4.0),
            delays=model.delays((1.0, 2.0, 4.0), 50.0),
            delta=0.9,
            qbar=1.0,
            cap_mbps=50.0,
        ),
        UserSlotState(
            sizes=(1.0, 3.0),
            delays=model.delays((1.0, 3.0), 50.0),
            delta=0.8,
            qbar=0.5,
            cap_mbps=50.0,
        ),
    )
    problem = SlotProblem(
        t=3, users=users, budget_mbps=5.0, weights=WEIGHTS
    )
    with pytest.raises(ConfigurationError):
        SlotBatch.from_problem(problem)
    array_alloc = ArrayAllocator()
    heap_alloc = DensityValueGreedyAllocator()
    assert array_alloc.allocate(problem) == heap_alloc.allocate(problem)
    assert array_alloc.fallbacks == 1
    array_alloc.reset()
    assert array_alloc.fallbacks == 0


@pytest.mark.parametrize("router_of", [(0, -1, 0), (0, 1, 2)])
def test_router_index_outside_budgets_is_refused(router_of):
    """Both problem forms refuse a router index with no budget.

    A negative index would otherwise charge the seat to the last
    router through numpy indexing on the array path.
    """
    model = MM1DelayModel()
    sizes = (1.0, 2.0, 4.0)
    users = tuple(
        UserSlotState(sizes, model.delays(sizes, 50.0), 0.9, 1.0, 50.0)
        for _ in router_of
    )
    with pytest.raises(ConfigurationError, match="router index"):
        SlotProblem(
            t=3, users=users, budget_mbps=12.0, weights=WEIGHTS,
            router_of=router_of, router_budgets_mbps=(6.0, 6.0),
        )
    size_rows = np.array([sizes] * len(router_of))
    with pytest.raises(ConfigurationError, match="router index"):
        SlotBatch(
            t=3,
            sizes=size_rows,
            delays=mm1_delay_matrix(size_rows, np.full(len(router_of), 50.0)),
            delta=np.full(len(router_of), 0.9),
            qbar=np.ones(len(router_of)),
            caps_mbps=np.full(len(router_of), 50.0),
            budget_mbps=12.0,
            weights=WEIGHTS,
            router_of=np.array(router_of, dtype=np.int64),
            router_budgets_mbps=np.array([6.0, 6.0]),
        )


def test_scheduler_batch_path_matches_problem_path():
    """Delay rows from ``mm1_delay_matrix`` plan like the model's rows.

    The object scheduler reads :meth:`MM1DelayModel.delays` rows and
    the heap solver; the array scheduler reads rows of the vectorized
    delay matrix and :class:`ArrayAllocator`.  Levels, and the running
    state they fold into, must agree slot after slot.
    """
    rng = np.random.default_rng(SEED + 1)
    model = MM1DelayModel()
    num_users, num_levels, num_slots = 8, 5, 20
    object_sched = CollaborativeVrScheduler(
        num_users, DensityValueGreedyAllocator(), WEIGHTS, allow_skip=True
    )
    array_alloc = ArrayAllocator()
    array_sched = CollaborativeVrScheduler(
        num_users, array_alloc, WEIGHTS, allow_skip=True
    )
    for _ in range(num_slots):
        base = rng.uniform(0.5, 3.0, size=num_users)
        sizes = base[:, None] * 1.5 ** np.arange(num_levels)[None, :]
        caps = rng.uniform(5.0, 100.0, size=num_users)
        budget = float(sizes[:, 0].sum() + rng.uniform(0.0, 1.0) * (
            sizes[:, -1].sum() - sizes[:, 0].sum()
        ))

        problem = object_sched.build_slot_problem(
            sizes=[tuple(row) for row in sizes],
            delays=[model.delays(row, float(c)) for row, c in zip(sizes, caps)],
            caps_mbps=list(caps),
            budget_mbps=budget,
        )
        want = object_sched.allocate(problem)

        array_problem = array_sched.build_slot_problem(
            sizes=sizes,
            delays=mm1_delay_matrix(sizes, caps),
            caps_mbps=caps,
            budget_mbps=budget,
        )
        got = array_sched.allocate(array_problem)
        assert got == want

        # Fold identical outcomes so the running qbar/delta state (and
        # therefore the next slot's gain matrices) stays in lockstep.
        indicators = (rng.uniform(size=num_users) < 0.85).astype(int)
        delays = rng.uniform(0.0, 2.0, size=num_users)
        object_sched.record_outcomes(want, list(indicators), list(delays))
        array_sched.record_outcomes(want, list(indicators), list(delays))

    assert array_alloc.fallbacks == 0
    assert object_sched.total_qoe() == array_sched.total_qoe()

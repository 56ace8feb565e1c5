"""One allocator, two exact paths, on real slot problems.

The solver differential covers the knapsack layer; these tests cover
the layer above it — eq. (9) gain construction, M/M/1 delays, skip
options, router groups — by allocating random
:class:`~repro.core.allocation.SlotProblem` s with the allocators of
:mod:`repro.core.allocation` and demanding the level list of the
reference Algorithm 1 loop.  Fleets on both sides of
:data:`~repro.core.allocation.SWEEP_MIN_USERS` are drawn, so the heap
path and the sorted sweep are both held to the reference, and the
sweep is checked to accept every realistic slot it is given.
"""

import numpy as np
import pytest

from repro.core.allocation import (
    SWEEP_MIN_USERS,
    DensityGreedyAllocator,
    DensityValueGreedyAllocator,
    QualityAllocator,
    SlotProblem,
    UserSlotState,
    ValueGreedyAllocator,
)
from repro.core.qoe import QoEWeights
from repro.core.scheduler import CollaborativeVrScheduler
from repro.errors import ConfigurationError
from repro.kernel import mm1_delay_matrix, solve_batch
from repro.knapsack.greedy import combined_greedy, density_greedy, value_greedy
from repro.simulation.delaymodel import MM1DelayModel

NUM_ROUNDS = 200
SEED = 20220806

WEIGHTS = QoEWeights(alpha=0.02, beta=0.5)

ALLOCATORS = [
    (DensityValueGreedyAllocator, combined_greedy),
    (DensityGreedyAllocator, density_greedy),
    (ValueGreedyAllocator, value_greedy),
]


def _reference_levels(problem, solver=combined_greedy):
    """Levels of the direct Algorithm 1 loop (option -1, skip, is 0)."""
    options = solver(problem.to_knapsack(), strategy="reference").options
    return [k + 1 for k in options]


class _ReferenceAllocator(QualityAllocator):
    name = "reference"

    def allocate(self, problem):
        return _reference_levels(problem)


def _random_problem(rng, model, num_users):
    num_levels = int(rng.integers(2, 7))
    t = int(rng.integers(1, 50))
    users = []
    for _ in range(num_users):
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
        router_of = tuple(
            int(x) for x in rng.integers(0, num_routers, size=num_users)
        )
        router_budgets = tuple(
            float(budget * rng.uniform(0.4, 1.0)) for _ in range(num_routers)
        )
    return SlotProblem.from_users(
        t=t,
        users=tuple(users),
        budget_mbps=budget,
        weights=WEIGHTS,
        allow_skip=bool(rng.integers(0, 2)),
        router_of=router_of,
        router_budgets_mbps=router_budgets,
    )


def _fleet_sizes(rng):
    """Seat counts alternating below and at-or-above the crossover."""
    for round_index in range(NUM_ROUNDS):
        if round_index % 2:
            yield round_index, int(
                rng.integers(SWEEP_MIN_USERS, SWEEP_MIN_USERS + 12)
            )
        else:
            yield round_index, int(rng.integers(1, SWEEP_MIN_USERS))


def test_allocators_identical_over_random_slots():
    rng = np.random.default_rng(SEED)
    model = MM1DelayModel()
    allocator = DensityValueGreedyAllocator()
    sweeps = 0
    for round_index, num_users in _fleet_sizes(rng):
        problem = _random_problem(rng, model, num_users)
        try:
            want = _reference_levels(problem)
        except Exception as exc:
            # Infeasible draws must fail identically on both paths.
            with pytest.raises(type(exc)):
                allocator.allocate(problem)
            continue
        got = allocator.allocate(problem)
        assert got == want, f"round {round_index}: {got} != {want}"
        # The sweep applies to every realistic slot, not only in theory.
        assert solve_batch(problem) is not None
        sweeps += num_users >= SWEEP_MIN_USERS
    assert sweeps > NUM_ROUNDS // 4


@pytest.mark.parametrize(
    "allocator_cls, solver", ALLOCATORS, ids=lambda x: x.__name__
)
def test_every_order_matches_its_reference_on_both_sides(allocator_cls, solver):
    rng = np.random.default_rng(SEED + 2)
    model = MM1DelayModel()
    allocator = allocator_cls()
    for num_users in (SWEEP_MIN_USERS - 1, SWEEP_MIN_USERS, 2 * SWEEP_MIN_USERS):
        for _ in range(10):
            problem = _random_problem(rng, model, num_users)
            try:
                want = _reference_levels(problem, solver)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    allocator.allocate(problem)
                continue
            assert allocator.allocate(problem) == want


@pytest.mark.parametrize(
    "num_users, sweeps",
    [(1, 0), (SWEEP_MIN_USERS - 1, 0), (SWEEP_MIN_USERS, 1), (64, 1)],
)
def test_seat_count_picks_the_path(monkeypatch, num_users, sweeps):
    calls = []

    def counting(batch, order):
        calls.append(order)
        return solve_batch(batch, order)

    monkeypatch.setattr("repro.core.allocation.solve_batch", counting)
    rng = np.random.default_rng(SEED + 3)
    problem = _random_problem(rng, MM1DelayModel(), num_users)
    want = _reference_levels(problem)
    assert DensityValueGreedyAllocator().allocate(problem) == want
    assert calls == ["combined"] * sweeps


def test_ragged_menu_is_refused():
    """A slot problem is ``(N, L)``: users that disagree on L are refused.

    No rate model produces such a menu; refusing it at construction
    leaves the allocators one rectangular form to solve.
    """
    model = MM1DelayModel()
    users = []
    for n in range(SWEEP_MIN_USERS):
        sizes = (1.0, 2.0, 4.0) if n % 2 else (1.0, 3.0)
        users.append(
            UserSlotState(
                sizes=sizes,
                delays=model.delays(sizes, 50.0),
                delta=0.9 - 0.01 * n,
                qbar=0.5 + 0.05 * n,
                cap_mbps=50.0,
            )
        )
    with pytest.raises(ConfigurationError, match="same number of levels"):
        SlotProblem.from_users(
            t=3, users=tuple(users), budget_mbps=2.5 * len(users), weights=WEIGHTS
        )
    scheduler = CollaborativeVrScheduler(
        len(users), DensityValueGreedyAllocator(), WEIGHTS
    )
    with pytest.raises(ConfigurationError, match=r"\(N, L\) rows"):
        scheduler.build_slot_problem(
            [user.sizes for user in users],
            [user.delays for user in users],
            [user.cap_mbps for user in users],
            2.5 * len(users),
        )


def test_refused_slot_falls_back_to_heap():
    # A delay row that flattens after the first upgrade makes the
    # second upgrade worth more than the first: the priority rows are
    # not non-increasing, so the sweep refuses the slot.
    users = tuple(
        UserSlotState(
            sizes=(1.0, 2.0, 3.0),
            delays=(0.0, 5.0, 5.0),
            delta=0.9 - 0.01 * n,
            qbar=1.0,
            cap_mbps=50.0,
        )
        for n in range(SWEEP_MIN_USERS)
    )
    problem = SlotProblem.from_users(
        t=1, users=users, budget_mbps=2.0 * len(users), weights=WEIGHTS
    )
    assert solve_batch(problem) is None
    for allocator_cls, solver in ALLOCATORS:
        got = allocator_cls().allocate(problem)
        assert got == _reference_levels(problem, solver), allocator_cls


@pytest.mark.parametrize("router_of", [(0, -1, 0), (0, 1, 2)])
def test_router_index_outside_budgets_is_refused(router_of):
    """Both constructors refuse a router index with no budget.

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
        SlotProblem.from_users(
            t=3, users=users, budget_mbps=12.0, weights=WEIGHTS,
            router_of=router_of, router_budgets_mbps=(6.0, 6.0),
        )
    size_rows = np.array([sizes] * len(router_of))
    with pytest.raises(ConfigurationError, match="router index"):
        SlotProblem(
            t=3,
            sizes=size_rows,
            delays=mm1_delay_matrix(size_rows, np.full(len(router_of), 50.0)),
            delta=np.full(len(router_of), 0.9),
            qbar=np.ones(len(router_of)),
            caps_mbps=np.full(len(router_of), 50.0),
            raw_caps_mbps=np.full(len(router_of), 50.0),
            budget_mbps=12.0,
            weights=WEIGHTS,
            router_of=np.array(router_of, dtype=np.int64),
            router_budgets_mbps=np.array([6.0, 6.0]),
        )


def test_scheduler_batch_path_matches_problem_path():
    """Delay rows from ``mm1_delay_matrix`` plan like the model's rows.

    One scheduler reads :meth:`MM1DelayModel.delays` rows and plans
    with the reference Algorithm 1 loop; the other reads rows of the
    vectorized delay matrix and plans with
    :class:`DensityValueGreedyAllocator`, which takes the sorted sweep
    at this fleet size.  Levels, and the running state they fold into,
    must agree slot after slot.
    """
    rng = np.random.default_rng(SEED + 1)
    model = MM1DelayModel()
    num_users, num_levels, num_slots = SWEEP_MIN_USERS, 5, 20
    object_sched = CollaborativeVrScheduler(
        num_users, _ReferenceAllocator(), WEIGHTS, allow_skip=True
    )
    array_sched = CollaborativeVrScheduler(
        num_users, DensityValueGreedyAllocator(), WEIGHTS, allow_skip=True
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
        assert solve_batch(array_problem) is not None

        # Fold identical outcomes so the running qbar/delta state (and
        # therefore the next slot's gain matrices) stays in lockstep.
        indicators = (rng.uniform(size=num_users) < 0.85).astype(int)
        delays = rng.uniform(0.0, 2.0, size=num_users)
        object_sched.record_outcomes(want, list(indicators), list(delays))
        array_sched.record_outcomes(want, list(indicators), list(delays))

    assert object_sched.total_qoe() == array_sched.total_qoe()

"""The array slot problem answers exactly like the per-seat object one.

:class:`~repro.core.allocation.SlotProblem` keeps a slot as ``(N, L)``
and ``(N,)`` arrays; ``tests/core/_reference_problem.py`` keeps the
class it replaced, one :class:`~repro.core.allocation.UserSlotState`
per user.  Built from the same users, the two must agree with ``==``
(no tolerance) on every per-user curve, the knapsack they hand the
solvers, and the value, rate and feasibility of any allocation.
"""

import numpy as np
import pytest

from repro.core.allocation import SlotProblem, UserSlotState
from repro.core.qoe import QoEWeights
from repro.simulation.delaymodel import MM1DelayModel
from tests.core._reference_problem import ReferenceSlotProblem

WEIGHTS = QoEWeights(alpha=0.02, beta=0.5)
SEED = 1906


def _sizes(base, growth, num_levels):
    row = [base]
    for _ in range(num_levels - 1):
        row.append(row[-1] * growth)
    return tuple(row)


def _pair(rng, num_users, allow_skip, routed):
    """One seeded slot as the array problem and as the object oracle."""
    model = MM1DelayModel()
    num_levels = int(rng.integers(1, 7))
    users = []
    for _ in range(num_users):
        sizes = _sizes(
            float(rng.uniform(0.5, 4.0)), float(rng.uniform(1.2, 2.0)), num_levels
        )
        cap = float(rng.uniform(2.0, 60.0))
        users.append(
            UserSlotState(
                sizes=sizes,
                delays=model.delays(sizes, cap * float(rng.uniform(0.8, 1.5))),
                delta=float(rng.uniform(0.0, 1.0)),
                qbar=float(rng.uniform(0.0, num_levels)),
                cap_mbps=cap,
                raw_cap_mbps=cap * float(rng.uniform(1.0, 1.3)),
            )
        )
    budget = float(rng.uniform(0.5, 1.5)) * sum(u.sizes[-1] for u in users) / 2
    router_of = router_budgets = None
    if routed:
        router_of = tuple(int(r) for r in rng.integers(0, 2, num_users))
        router_budgets = (budget * 0.6, budget * 0.7)
    args = (int(rng.integers(1, 51)), tuple(users), budget, WEIGHTS)
    kwargs = dict(
        allow_skip=allow_skip,
        router_of=router_of,
        router_budgets_mbps=router_budgets,
    )
    return SlotProblem.from_users(*args, **kwargs), ReferenceSlotProblem(
        *args, **kwargs
    )


def _allocations(rng, num_users, num_levels, count=20):
    """Random level vectors (skips included), then all-top and all-base."""
    for _ in range(count):
        yield [int(q) for q in rng.integers(0, num_levels + 1, num_users)]
    yield [num_levels] * num_users
    yield [1] * num_users


@pytest.mark.parametrize("num_users", [1, 5, 19, 20, 21, 64])
@pytest.mark.parametrize("allow_skip", [False, True])
@pytest.mark.parametrize("routed", [False, True])
def test_array_problem_equals_object_problem(num_users, allow_skip, routed):
    rng = np.random.default_rng([SEED, num_users, int(allow_skip), int(routed)])
    for _ in range(5):
        problem, reference = _pair(rng, num_users, allow_skip, routed)
        assert problem.num_users == reference.num_users
        assert problem.num_levels == reference.num_levels
        for n in range(num_users):
            assert problem.objective_curve(n) == reference.objective_curve(n)
            assert problem.skip_value(n) == reference.skip_value(n)

        got, want = problem.to_knapsack(), reference.to_knapsack()
        assert got.items == want.items
        assert got.budget == want.budget
        assert got.allow_skip == want.allow_skip
        assert tuple(got.skip_values) == tuple(want.skip_values)
        assert got.group_of == want.group_of
        assert got.group_budgets == want.group_budgets

        for levels in _allocations(rng, num_users, problem.num_levels):
            assert problem.objective_value(levels) == reference.objective_value(
                levels
            )
            assert problem.total_rate(levels) == reference.total_rate(levels)
            assert problem.is_feasible(levels) == reference.is_feasible(levels)
        for bad in (-1, problem.num_levels + 1):
            levels = [1] * num_users
            levels[-1] = bad
            assert problem.is_feasible(levels) == reference.is_feasible(levels)

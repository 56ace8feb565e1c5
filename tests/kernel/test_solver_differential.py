"""Array solver vs heap solver: bit-identical, or an honest refusal.

The same 200-round seeded sweep as ``tests/knapsack/test_differential``
plus the constraint variants (caps, groups, skip), comparing
:func:`repro.kernel.solver.solve_arrays` against the heap strategy in
every attractiveness order: ``density`` against
:func:`~repro.knapsack.greedy.density_greedy`, ``value`` against
:func:`~repro.knapsack.greedy.value_greedy` (the ablation allocators
reach these single-order sweeps) and ``combined`` against
:func:`~repro.knapsack.greedy.combined_greedy`.  Identity here means
``==`` on options, value, and weight — floats included, no tolerance.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, InfeasibleAllocationError
from repro.kernel.solver import ORDERS, solve_arrays
from repro.knapsack import combined_greedy, density_greedy, value_greedy
from repro.knapsack.random_instances import random_instance

NUM_ROUNDS = 200
SEED = 20220806

HEAP_SOLVERS = {
    "density": density_greedy,
    "value": value_greedy,
    "combined": combined_greedy,
}


def _arrays_of(problem):
    values = np.array([item.values for item in problem.items], dtype=float)
    weights = np.array([item.weights for item in problem.items], dtype=float)
    caps = np.array([item.cap for item in problem.items], dtype=float)
    skip = (
        np.array(problem.skip_values, dtype=float)
        if problem.skip_values
        else None
    )
    group_of = (
        np.array(problem.group_of, dtype=np.int64)
        if problem.group_of is not None
        else None
    )
    group_budgets = (
        np.array(problem.group_budgets, dtype=float)
        if problem.group_budgets is not None
        else None
    )
    return values, weights, caps, skip, group_of, group_budgets


def _solve_both(problem, order):
    heap = HEAP_SOLVERS[order](problem, strategy="heap")
    values, weights, caps, skip, group_of, group_budgets = _arrays_of(problem)
    array = solve_arrays(
        values,
        weights,
        problem.budget,
        caps=caps,
        allow_skip=problem.allow_skip,
        skip_values=skip,
        group_of=group_of,
        group_budgets=group_budgets,
        order=order,
    )
    return heap, array


def _assert_identical(problem, round_index):
    """The sweep equals the heap on ``problem`` in every order."""
    for order in ORDERS:
        where = f"round {round_index}, order {order}"
        heap, array = _solve_both(problem, order)
        assert array is not None, f"{where}: fast path refused"
        assert array.options == heap.options, where
        assert array.value == heap.value, where
        assert array.weight == heap.weight, where


class TestSolverDifferential:
    def test_plain_instances(self):
        rng = np.random.default_rng(SEED)
        for round_index in range(NUM_ROUNDS):
            problem = random_instance(
                rng,
                num_items=int(rng.integers(1, 7)),
                num_options=int(rng.integers(2, 6)),
                tightness=float(rng.uniform(0.0, 1.1)),
            )
            _assert_identical(problem, round_index)

    def test_capped_instances(self):
        rng = np.random.default_rng(SEED)
        for round_index in range(NUM_ROUNDS):
            problem = random_instance(
                rng,
                num_items=int(rng.integers(1, 7)),
                num_options=int(rng.integers(2, 6)),
                tightness=float(rng.uniform(0.0, 1.1)),
                with_caps=True,
            )
            _assert_identical(problem, round_index)

    def test_skip_instances(self):
        rng = np.random.default_rng(SEED)
        for round_index in range(NUM_ROUNDS):
            problem = random_instance(
                rng,
                num_items=int(rng.integers(1, 7)),
                num_options=int(rng.integers(2, 6)),
                tightness=float(rng.uniform(0.0, 1.1)),
                allow_skip=True,
            )
            _assert_identical(problem, round_index)

    def test_grouped_instances(self):
        rng = np.random.default_rng(SEED)
        for round_index in range(NUM_ROUNDS):
            problem = random_instance(
                rng,
                num_items=int(rng.integers(2, 7)),
                num_options=int(rng.integers(2, 6)),
                tightness=float(rng.uniform(0.0, 1.1)),
                num_groups=int(rng.integers(1, 4)),
            )
            _assert_identical(problem, round_index)

    def test_everything_at_once(self):
        rng = np.random.default_rng(SEED)
        for round_index in range(NUM_ROUNDS):
            problem = random_instance(
                rng,
                num_items=int(rng.integers(2, 7)),
                num_options=int(rng.integers(2, 6)),
                tightness=float(rng.uniform(0.0, 1.1)),
                with_caps=True,
                num_groups=int(rng.integers(1, 4)),
                allow_skip=True,
            )
            _assert_identical(problem, round_index)


class TestFastPathBoundaries:
    def test_non_monotone_priorities_refused(self):
        # A convex value curve makes the density deltas *increase*
        # along the row, breaking the sorted-sweep precondition; the
        # solver must refuse (return None), never guess.
        values = np.array([[0.0, 1.0, 5.0]])
        weights = np.array([[1.0, 2.0, 3.0]])
        assert solve_arrays(values, weights, budget=10.0) is None

    def test_negative_tail_is_truncated_not_refused(self):
        # Decreasing then negative priorities stay on the fast path:
        # the object greedy stops at the first negative candidate, the
        # array solver truncates the row there.
        values = np.array([[0.0, 2.0, 1.0]])
        weights = np.array([[1.0, 2.0, 3.0]])
        solution = solve_arrays(values, weights, budget=10.0)
        assert solution is not None
        assert solution.options == (1,)

    def test_single_level_rows(self):
        values = np.array([[1.0], [2.0]])
        weights = np.array([[1.0], [1.0]])
        solution = solve_arrays(values, weights, budget=10.0)
        assert solution is not None
        assert solution.options == (0, 0)

    def test_infeasible_base_raises(self):
        values = np.array([[1.0, 2.0]])
        weights = np.array([[5.0, 6.0]])
        with pytest.raises(InfeasibleAllocationError):
            solve_arrays(values, weights, budget=1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_arrays(np.zeros((2, 3)), np.ones((2, 2)), budget=1.0)

    def test_unknown_order_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_arrays(
                np.zeros((1, 2)), np.ones((1, 2)), budget=1.0, order="magic"
            )

"""Array-native Algorithm 1 — one sorted sweep instead of a heap.

Why a sorted sweep is exact
---------------------------
The heap greedy pops candidates in ``(-priority, item, option)``
order.  When every item's candidate priorities are non-increasing in
the option index (the Theorem 1 regime: concave values, convex
weights), the heap never *re-orders* an item's own candidates — after
granting ``(n, k)`` the freshly pushed ``(n, k+1)`` sorts at or after
the popped entry.  The whole upgrade sequence is therefore the global
lexicographic sort of all candidates, processed once:

* a candidate whose target weight violates the per-item cap would be
  rejected *and retire the item*; caps bind on a suffix of each row
  (weights are strictly increasing), so pre-truncating cap-violating
  candidates is equivalent;
* the object greedy stops as soon as the best fresh priority is
  negative, so a negative-priority candidate is never granted and
  blocks its item's later candidates — truncating each row at its
  first negative priority is equivalent;
* what remains is checked to be exactly non-increasing per row
  (``prio[k+1] <= prio[k]``, no tolerance).  Rows that fail — possible
  when delay saturation makes eq. (9) locally non-concave without
  going negative — make the fast path refuse (return ``None``) and
  the caller falls back to the object solver, so speed never buys a
  different answer.

Budget accounting uses ``np.cumsum``, which adds floats left-to-right
exactly like the object loop's running total, so acceptance decisions
(`> budget + eps`) flip at the same candidate.  The first candidate
the cumulative total rejects retires its item; from there a scalar
tail loop finishes the sweep (only a bounded suffix of candidates
remains in play once the budget binds).  Group (per-router) budgets
take the scalar sweep from the start — grant order still comes from
the one global sort.

Everything here is property-tested for bit-identity against the heap
solver in ``tests/kernel/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, InfeasibleAllocationError

if TYPE_CHECKING:
    from repro.core.allocation import SlotProblem

_EPS = 1e-9

#: Attractiveness orders accepted by :func:`solve_arrays`.
ORDERS = ("density", "value", "combined")


@dataclass(frozen=True)
class ArraySolution:
    """Mirror of :class:`~repro.knapsack.problem.Solution` over arrays."""

    options: Tuple[int, ...]
    value: float
    weight: float


def _seq_sum(parts: np.ndarray, start: float = 0.0) -> float:
    """Left-to-right float sum — bit-identical to a python ``sum`` loop."""
    if parts.size == 0:
        return start
    return float(np.cumsum(np.concatenate(([start], parts)))[-1])


def _option_weights(options: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-item chosen weight; skipped items weigh exactly 0.0."""
    idx = np.maximum(options, 0)
    chosen = weights[np.arange(options.size, dtype=np.int64), idx]
    return np.where(options >= 0, chosen, 0.0)


def _group_totals(
    options: np.ndarray,
    weights: np.ndarray,
    group_of: np.ndarray,
    num_groups: int,
) -> List[float]:
    """Per-group weight, summed in item order like the object path."""
    w = _option_weights(options, weights)
    return [_seq_sum(w[group_of == g]) for g in range(num_groups)]


def _feasible(
    options: np.ndarray,
    weights: np.ndarray,
    caps: np.ndarray,
    budget: float,
    allow_skip: bool,
    group_of: Optional[np.ndarray],
    group_budgets: Optional[np.ndarray],
) -> bool:
    """Replicates :meth:`SeparableKnapsack.is_feasible` on arrays."""
    if not allow_skip and bool(np.any(options < 0)):
        return False
    w = _option_weights(options, weights)
    chosen = options >= 0
    if bool(np.any(w[chosen] > caps[chosen] + _EPS)):
        return False
    if _seq_sum(w) > budget + _EPS:
        return False
    if group_of is not None and group_budgets is not None:
        totals = _group_totals(options, weights, group_of, group_budgets.size)
        for g in range(group_budgets.size):
            if totals[g] > float(group_budgets[g]) + _EPS:
                return False
    return True


def _base_options(
    values: np.ndarray,
    weights: np.ndarray,
    caps: np.ndarray,
    budget: float,
    allow_skip: bool,
    skip_values: np.ndarray,
    group_of: Optional[np.ndarray],
    group_budgets: Optional[np.ndarray],
) -> np.ndarray:
    """Replicates :meth:`SeparableKnapsack.base_solution` on arrays."""
    num_items = values.shape[0]
    options = np.zeros(num_items, dtype=np.int64)
    over_cap = weights[:, 0] > caps + _EPS
    if bool(over_cap.any()):
        if not allow_skip:
            n = int(np.argmax(over_cap))
            raise InfeasibleAllocationError(
                f"item {n}: base weight {weights[n, 0]} exceeds cap {caps[n]}"
            )
        options[over_cap] = -1
    if _feasible(options, weights, caps, budget, allow_skip, group_of, group_budgets):
        return options
    if not allow_skip:
        total = _seq_sum(_option_weights(options, weights))
        raise InfeasibleAllocationError(
            f"base weight {total} exceeds budget {budget} (or a group budget)"
        )
    # Shed worst-density base deliveries, exactly like the object path:
    # ascending (value gain over skip) / base weight, ties by index.
    density = (values[:, 0] - skip_values) / weights[:, 0]
    candidates = np.nonzero(options == 0)[0]
    order = np.lexsort((candidates, density[candidates]))
    for n in candidates[order].tolist():
        if _feasible(
            options, weights, caps, budget, allow_skip, group_of, group_budgets
        ):
            break
        total = _seq_sum(_option_weights(options, weights))
        helps = total > budget + _EPS
        if not helps and group_of is not None and group_budgets is not None:
            g = int(group_of[n])
            group_weight = _group_totals(
                options, weights, group_of, group_budgets.size
            )[g]
            helps = group_weight > float(group_budgets[g]) + _EPS
        if helps:
            options[n] = -1
    if not _feasible(
        options, weights, caps, budget, allow_skip, group_of, group_budgets
    ):
        raise InfeasibleAllocationError(
            f"cannot satisfy budget {budget} even with all items skipped"
        )
    return options


def _greedy_pass(
    values: np.ndarray,
    weights: np.ndarray,
    caps: np.ndarray,
    budget: float,
    base: np.ndarray,
    base_weight: float,
    density_order: bool,
    group_of: Optional[np.ndarray],
    group_budgets: Optional[np.ndarray],
) -> Optional[np.ndarray]:
    """One attractiveness order's upgrade sweep (``None`` = refuse)."""
    num_items, num_levels = values.shape
    options = base.copy()
    if num_levels == 1:
        return options

    dv = values[:, 1:] - values[:, :-1]
    dw = weights[:, 1:] - weights[:, :-1]
    prio = dv / dw if density_order else dv

    ks = np.arange(num_levels - 1, dtype=np.int64)[None, :]
    valid = (base[:, None] >= 0) & (weights[:, 1:] <= caps[:, None] + _EPS)
    # Truncate each row at its first negative priority: the object
    # greedy never grants past it (see module docstring).
    negative = valid & (prio < 0)
    first_negative = np.where(
        negative.any(axis=1), np.argmax(negative, axis=1), num_levels - 1
    )
    valid &= ks < first_negative[:, None]
    # Exact monotone gate on the surviving prefix.
    adjacent = valid[:, 1:] & valid[:, :-1]
    if bool(np.any(adjacent & (prio[:, 1:] > prio[:, :-1]))):
        return None

    items, kk = np.nonzero(valid)
    if items.size == 0:
        return options
    p = prio[items, kk]
    order = np.lexsort((kk, items, -p))
    items = items[order]
    kk = kk[order]
    deltas = dw[items, kk]

    committed = base_weight
    cut = items.size
    if group_of is None:
        # No retired items can exist before the first budget rejection,
        # so the whole prefix is one exact cumulative sum.
        totals = np.cumsum(np.concatenate(([committed], deltas)))[1:]
        over = totals > budget + _EPS
        if bool(over.any()):
            cut = int(np.argmax(over))
        if cut > 0:
            np.maximum.at(options, items[:cut], kk[:cut] + 1)
            committed = float(totals[cut - 1])
        if cut == items.size:
            return options
        group_weights: List[float] = []
    else:
        cut = 0
        group_weights = _group_totals(
            options, weights, group_of, group_budgets.size
        )

    # Scalar tail: identical decisions to _try_upgrade, in sort order.
    retired = np.zeros(num_items, dtype=bool)
    tail_items = items[cut:].tolist()
    tail_ks = kk[cut:].tolist()
    tail_deltas = deltas[cut:].tolist()
    budgets_list = (
        [float(b) for b in group_budgets] if group_budgets is not None else []
    )
    for i in range(len(tail_items)):
        n = tail_items[i]
        if retired[n]:
            continue
        delta = tail_deltas[i]
        new_weight = committed + delta
        if new_weight > budget + _EPS:
            retired[n] = True
            continue
        if group_of is not None:
            g = int(group_of[n])
            if group_weights[g] + delta > budgets_list[g] + _EPS:
                retired[n] = True
                continue
            group_weights[g] += delta
        options[n] = tail_ks[i] + 1
        committed = new_weight
    return options


def _evaluate(
    options: np.ndarray,
    values: np.ndarray,
    weights: np.ndarray,
    skip_values: np.ndarray,
) -> ArraySolution:
    """Replicates :meth:`SeparableKnapsack.evaluate` (sequential sums)."""
    idx = np.maximum(options, 0)
    rows = np.arange(options.size, dtype=np.int64)
    vals = np.where(options >= 0, values[rows, idx], skip_values)
    ws = np.where(options >= 0, weights[rows, idx], 0.0)
    return ArraySolution(
        options=tuple(int(k) for k in options),
        value=_seq_sum(vals),
        weight=_seq_sum(ws),
    )


def solve_arrays(
    values: np.ndarray,
    weights: np.ndarray,
    budget: float,
    caps: Optional[np.ndarray] = None,
    allow_skip: bool = False,
    skip_values: Optional[np.ndarray] = None,
    group_of: Optional[np.ndarray] = None,
    group_budgets: Optional[np.ndarray] = None,
    order: str = "combined",
) -> Optional[ArraySolution]:
    """Solve a rectangular separable knapsack over flat arrays.

    ``values`` / ``weights`` are ``(N, L)`` matrices (option ``k`` of
    item ``n`` at ``[n, k]``); semantics match
    :meth:`SeparableKnapsack.solve` with the same ``order``, and the
    result is bit-identical to the heap strategy.  Returns ``None``
    when a priority row is non-monotone after truncation — the caller
    must fall back to the object solver.
    """
    if order not in ORDERS:
        raise ConfigurationError(
            f"unknown greedy order {order!r}; expected one of {ORDERS}"
        )
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape or values.ndim != 2 or values.shape[1] < 1:
        raise ConfigurationError(
            f"values/weights must be equal (N, L) matrices, got "
            f"{values.shape} and {weights.shape}"
        )
    num_items = values.shape[0]
    if caps is None:
        caps = np.full(num_items, np.inf, dtype=float)
    else:
        caps = np.asarray(caps, dtype=float)
    if skip_values is None:
        skip_values = np.zeros(num_items, dtype=float)
    else:
        skip_values = np.asarray(skip_values, dtype=float)
    if group_of is not None:
        group_of = np.asarray(group_of, dtype=np.int64)
        group_budgets = np.asarray(group_budgets, dtype=float)

    base = _base_options(
        values, weights, caps, budget, allow_skip, skip_values,
        group_of, group_budgets,
    )
    base_weight = _seq_sum(_option_weights(base, weights))

    if order == "combined":
        orders = (True, False)
    else:
        orders = (order == "density",)
    solutions: List[ArraySolution] = []
    for density_order in orders:
        options = _greedy_pass(
            values, weights, caps, budget, base, base_weight,
            density_order, group_of, group_budgets,
        )
        if options is None:
            return None
        solutions.append(_evaluate(options, values, weights, skip_values))
    if len(solutions) == 1:
        return solutions[0]
    density_run, value_run = solutions
    return density_run if density_run.value >= value_run.value else value_run


def solve_batch(
    problem: "SlotProblem", order: str = "combined"
) -> Optional[np.ndarray]:
    """Allocate quality levels for a :class:`~repro.core.allocation.SlotProblem`.

    Returns the per-user level vector (0 = skip) or ``None`` when the
    fast path refuses and the heap solver must be used instead.
    """
    solution = solve_arrays(
        problem.gain_matrix(),
        problem.sizes,
        problem.budget_mbps,
        caps=problem.caps_mbps,
        allow_skip=problem.allow_skip,
        skip_values=problem.skip_values() if problem.allow_skip else None,
        group_of=problem.router_of,
        group_budgets=problem.router_budgets_mbps,
        order=order,
    )
    if solution is None:
        return None
    return np.asarray(solution.options, dtype=np.int64) + 1

"""Nonlinear knapsack substrate.

The per-slot problem (5)-(7) of the paper is a *separable nonlinear
knapsack*: each item (user) selects one option (quality level) from an
ordered menu; the objective is the sum of per-item concave value
curves; each option carries a weight from a convex increasing curve;
the weights are constrained per-item (``B_n(t)``) and globally
(``B(t)``).

This subpackage implements the problem representation and a family of
solvers independent of any VR semantics so that the algorithmic core of
the paper can be tested and benchmarked in isolation:

* :class:`~repro.knapsack.problem.SeparableKnapsack` — the problem.
* :func:`~repro.knapsack.greedy.density_greedy`,
  :func:`~repro.knapsack.greedy.value_greedy`,
  :func:`~repro.knapsack.greedy.combined_greedy` — Algorithm 1 of the
  paper in its generic form.
* :func:`~repro.knapsack.exact.solve_exact` — branch-and-bound exact
  solver (the paper's "brute force" offline optimum).
* :func:`~repro.knapsack.bounds.fractional_upper_bound` — the LP-style
  relaxation used in the proof of Theorem 1.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.knapsack.problem": (
            "ItemCurve", "SeparableKnapsack", "Solution",
        ),
        "repro.knapsack.greedy": (
            "STRATEGIES", "combined_greedy", "density_greedy", "value_greedy",
        ),
        "repro.knapsack.exact": ("solve_exact", "solve_dynamic_programming"),
        "repro.knapsack.bounds": ("fractional_upper_bound",),
    },
)

__all__ = [
    "ItemCurve",
    "SeparableKnapsack",
    "Solution",
    "STRATEGIES",
    "density_greedy",
    "value_greedy",
    "combined_greedy",
    "solve_exact",
    "solve_dynamic_programming",
    "fractional_upper_bound",
]

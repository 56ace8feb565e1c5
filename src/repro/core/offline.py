"""The per-slot offline optimum (the paper's "optimal" curve).

Section IV: "when the number of users is small, we can use the brute
force method to generate the optimal offline solution of problem
(5)-(7)".  Note the *per-slot* problem is what the paper solves
exactly — the full horizon problem couples slots through the variance
and is exponential in ``N * T``.  This allocator therefore shares the
:class:`~repro.core.allocation.SlotProblem` interface with Algorithm 1
and simply swaps in the exact branch-and-bound solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.allocation import QualityAllocator, SlotProblem
from repro.errors import ConfigurationError
from repro.knapsack.exact import solve_exact


@dataclass
class OfflineOptimalAllocator(QualityAllocator):
    """Exact per-slot solver via branch-and-bound.

    Parameters
    ----------
    max_users:
        Guard rail: the search is exponential in the number of users,
        so refuse instances beyond this size instead of hanging.
    """

    max_users: int = 12
    name: str = field(default="offline-optimal", init=False)

    def allocate(self, problem: SlotProblem) -> List[int]:
        if problem.num_users > self.max_users:
            raise ConfigurationError(
                f"offline optimal is exponential in users; got {problem.num_users} "
                f"users but max_users={self.max_users}"
            )
        solution = solve_exact(problem.to_knapsack())
        return [k + 1 if k >= 0 else 0 for k in solution.options]

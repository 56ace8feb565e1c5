"""Sanity baselines: the allocations a non-adaptive system would use.

Neither appears in the paper's comparison, but both are the natural
"no scheduler" reference points any evaluation should anchor to:

* :class:`UniformAllocator` — everyone gets the same level, the
  highest one that is feasible for all users simultaneously (a
  classroom configured once, no per-user adaptation);
* :class:`MaxMinFairAllocator` — lexicographic max-min on levels:
  repeatedly raise the currently-lowest user while feasible (rate
  fairness with no QoE model at all).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.allocation import QualityAllocator, SlotProblem
from repro.errors import InfeasibleAllocationError

_EPS = 1e-9


def _fits(problem: SlotProblem, levels: List[int]) -> bool:
    return problem.is_feasible(levels)


@dataclass
class UniformAllocator(QualityAllocator):
    """One shared level for every user (highest feasible)."""

    name: str = field(default="uniform", init=False)

    def allocate(self, problem: SlotProblem) -> List[int]:
        for level in range(problem.num_levels, 0, -1):
            candidate = [level] * problem.num_users
            if _fits(problem, candidate):
                return candidate
        if problem.allow_skip:
            return [0] * problem.num_users
        raise InfeasibleAllocationError(
            "no uniform level fits the constraints and skipping is disabled"
        )


@dataclass
class MaxMinFairAllocator(QualityAllocator):
    """Raise the lowest user first, repeatedly, while feasible."""

    name: str = field(default="max-min-fair", init=False)

    def allocate(self, problem: SlotProblem) -> List[int]:
        levels = [1] * problem.num_users
        if not _fits(problem, levels):
            if not problem.allow_skip:
                raise InfeasibleAllocationError(
                    "the all-minimum allocation does not fit and skipping "
                    "is disabled"
                )
            # Degrade to skips, preferring to keep the cheapest users.
            base = problem.sizes[:, 0].tolist()
            order = sorted(range(problem.num_users), key=lambda n: base[n])
            levels = [0] * problem.num_users
            for n in order:
                levels[n] = 1
                if not _fits(problem, levels):
                    levels[n] = 0

        frozen = [False] * problem.num_users
        while not all(frozen):
            # The lowest non-frozen user gets the next upgrade try.
            candidates = [
                n for n in range(problem.num_users)
                if not frozen[n] and levels[n] > 0
            ]
            if not candidates:
                break
            n = min(candidates, key=lambda i: (levels[i], i))
            if levels[n] >= problem.num_levels:
                frozen[n] = True
                continue
            levels[n] += 1
            if not _fits(problem, levels):
                levels[n] -= 1
                frozen[n] = True
        return levels

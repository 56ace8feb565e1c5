"""Drop-in allocator backed by the array kernel.

:class:`ArrayAllocator` satisfies the
:class:`~repro.core.allocation.QualityAllocator` interface, so every
caller of the object pipeline (scheduler, simulator, system
emulation) can switch to the vectorized solver and get bit-identical
allocations; the serve slot loop always uses it.  It flattens the
problem's sizes and per-level delays into a
:class:`~repro.kernel.batch.SlotBatch` and solves it with
:func:`~repro.kernel.solver.solve_batch`.  Whenever the fast path
cannot run — ragged level menus, or a priority structure the
sorted sweep refuses — it falls back to the object heap solver, so
correctness never depends on the vectorization applying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.allocation import (
    QualityAllocator,
    SlotProblem,
    _options_to_levels,
)
from repro.errors import ConfigurationError
from repro.kernel.batch import SlotBatch
from repro.kernel.solver import solve_batch
from repro.knapsack.greedy import combined_greedy


@dataclass
class ArrayAllocator(QualityAllocator):
    """Algorithm 1 on flat arrays; bit-identical to the heap solver.

    ``fallbacks`` counts the slots that had to take the object-solver
    path (diagnostic only — results are identical either way).
    """

    name: str = field(default="density-value-greedy-array", init=False)
    fallbacks: int = field(default=0, init=False)

    def allocate(self, problem: SlotProblem) -> List[int]:
        try:
            batch = SlotBatch.from_problem(problem)
        except ConfigurationError:
            return self._fallback(problem)
        levels = solve_batch(batch)
        if levels is None:
            return self._fallback(problem)
        return [int(level) for level in levels]

    def _fallback(self, problem: SlotProblem) -> List[int]:
        self.fallbacks += 1
        solution = combined_greedy(problem.to_knapsack(), strategy="heap")
        return _options_to_levels(solution.options)

    def reset(self) -> None:
        self.fallbacks = 0

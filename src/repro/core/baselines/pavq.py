"""Modified PAVQ (Joseph & de Veciana, INFOCOM '12).

PAVQ jointly adapts multi-user video quality to trade mean quality
against temporal variability, steering each user's per-slot quality
toward its running mean.  The original algorithm has no delay term;
the paper modifies it for a fair comparison: "we modify the way to
calculate ``mu_i^P`` on its algorithm description ... to adapt to our
problem setting" (Section IV).

Reproduction.  PAVQ's per-user utility mirrors eq. (9) but with two
faithful differences from Algorithm 1's objective:

* PAVQ tracks the running mean of the *allocated* quality — it
  pre-dates viewport prediction and has no concept of a delivered
  frame missing the user's FoV, so no ``delta_n`` discount appears;
* the variance term therefore penalises deviation from the allocated
  mean, not the successfully-viewed mean;
* PAVQ assumes the allocated rate is actually delivered (its setting
  has perfect channel knowledge), so it takes the system's throughput
  estimates at face value (``raw_cap_mbps``) rather than applying a
  robustness discount — the vulnerability to "inaccurate throughput
  estimation" the paper's Section VI observes.

The allocation strategy is top-down (deliberately different from
Algorithm 1's bottom-up greedy — the paper notes PAVQ lands close to
the optimal QoE "via a totally different quality allocation
strategy"):

1. **Ideal point** — each user independently picks the level that
   maximises its own utility subject only to its own cap ``B_n(t)``.
2. **Repair** — while the server budget (6) is violated, decrement
   the user whose next one-level reduction sacrifices the least
   utility per Mbps freed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.allocation import QualityAllocator, SlotProblem
from repro.errors import InfeasibleAllocationError
from repro.prediction.accuracy import RunningMean

_EPS = 1e-9


@dataclass
class PavqAllocator(QualityAllocator):
    """Per-user ideal utility point followed by budget repair."""

    name: str = field(default="pavq", init=False)

    def __post_init__(self) -> None:
        self._allocated_mean: Dict[int, RunningMean] = {}
        self._t = 0

    def reset(self) -> None:
        self._allocated_mean.clear()
        self._t = 0

    def _mean(self, n: int) -> float:
        tracker = self._allocated_mean.get(n)
        return tracker.mean if tracker is not None else 0.0

    def _utility_curve(self, problem: SlotProblem, n: int) -> Tuple[float, ...]:
        """PAVQ's per-level utility: quality - delay - variability."""
        delays = problem.delays[n].tolist()
        t = self._t + 1
        ratio = (t - 1) / t
        mean = self._mean(n)
        alpha = problem.weights.alpha
        beta = problem.weights.beta
        return tuple(
            level
            - alpha * delays[level - 1]
            - beta * ratio * (level - mean) ** 2
            for level in range(1, len(delays) + 1)
        )

    def _skip_utility(self, n: int, beta: float) -> float:
        t = self._t + 1
        return -beta * (t - 1) / t * self._mean(n) ** 2

    def allocate(self, problem: SlotProblem) -> List[int]:
        curves = [
            self._utility_curve(problem, n) for n in range(problem.num_users)
        ]
        beta = problem.weights.beta

        sizes = problem.sizes.tolist()
        raw_caps = problem.raw_caps_mbps.tolist()

        # Step 1: unconstrained-by-server ideal level per user.
        levels: List[int] = []
        for n, row in enumerate(sizes):
            feasible = [
                level
                for level in range(1, len(row) + 1)
                if row[level - 1] <= raw_caps[n] + _EPS
            ]
            if not feasible:
                if not problem.allow_skip:
                    raise InfeasibleAllocationError(
                        f"user {n}: no level fits cap {raw_caps[n]:.3f} Mbps"
                    )
                levels.append(0)
                continue
            best = max(feasible, key=lambda level: curves[n][level - 1])
            if problem.allow_skip and self._skip_utility(n, beta) > curves[n][best - 1]:
                best = 0
            levels.append(best)

        # Step 2: repair the server constraint by cheapest decrements.
        total = problem.total_rate(levels)
        while total > problem.budget_mbps + _EPS:
            best_n = -1
            best_loss_density = float("inf")
            for n, level in enumerate(levels):
                if level == 0:
                    continue
                if level == 1 and not problem.allow_skip:
                    continue
                rate_now = sizes[n][level - 1]
                if level == 1:
                    value_next = self._skip_utility(n, beta)
                    rate_next = 0.0
                else:
                    value_next = curves[n][level - 2]
                    rate_next = sizes[n][level - 2]
                loss = curves[n][level - 1] - value_next
                freed = rate_now - rate_next
                density = loss / freed
                if density < best_loss_density:
                    best_loss_density = density
                    best_n = n
            if best_n < 0:
                raise InfeasibleAllocationError(
                    f"cannot repair server budget {problem.budget_mbps:.3f} Mbps: "
                    "every user already sits at the irreducible minimum"
                )
            levels[best_n] -= 1
            total = problem.total_rate(levels)

        # Fold this slot's allocation into the running means.
        for n, level in enumerate(levels):
            tracker = self._allocated_mean.setdefault(n, RunningMean())
            tracker.update(float(level))
        self._t += 1
        return levels

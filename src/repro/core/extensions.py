"""Extensions sketched in the paper's Discussion (Section VIII).

**Handling packet loss.**  The paper: "we do not incorporate it into
our optimization problem formulation ... we believe it can be further
improved by accounting for such information."
:class:`LossAwareAllocator` is that improvement: it discounts each
level's expected viewed quality not only by the motion-prediction
success ``delta_n`` but also by a *delivery* success probability that
decays as the level's rate approaches the (estimated) link capacity —
the empirical signature of overshoot-induced loss and lateness in the
real system.  The per-slot problem keeps its concave-objective /
convex-constraint structure, so Algorithm 1's machinery (and the
Theorem 1 guarantee relative to the modified objective) still applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.allocation import QualityAllocator, SlotProblem
from repro.errors import ConfigurationError
from repro.knapsack.greedy import combined_greedy
from repro.knapsack.problem import ItemCurve, SeparableKnapsack


def delivery_success_probability(
    rate_mbps: float,
    cap_mbps: float,
    knee: float = 0.85,
    steepness: float = 12.0,
) -> float:
    """Probability a frame at this rate survives delivery.

    A logistic in the utilisation ``u = rate / cap``: near 1 for small
    utilisation, dropping around the ``knee`` (defaults: sending at
    85% of the estimated capacity still almost always succeeds; at
    100% it is a coin toss; beyond that it mostly fails).
    """
    if cap_mbps <= 0:
        return 0.0 if rate_mbps > 0 else 1.0
    if rate_mbps < 0:
        raise ConfigurationError(f"rate must be non-negative, got {rate_mbps}")
    utilisation = rate_mbps / cap_mbps
    return 1.0 / (1.0 + math.exp(steepness * (utilisation - (knee + 0.15))))


@dataclass
class LossAwareAllocator(QualityAllocator):
    """Algorithm 1 on a loss-aware per-slot objective.

    For each level the expected viewed quality becomes
    ``delta_n * s_n(q) * q`` where ``s_n(q)`` is the delivery success
    probability at that level's rate, and the variance term uses the
    combined success probability — a frame lost in transit and a frame
    outside the FoV are both viewed as quality 0.
    """

    knee: float = 0.85
    steepness: float = 12.0
    name: str = field(default="loss-aware-greedy", init=False)

    def _curve(self, problem: SlotProblem, n: int) -> Tuple[float, ...]:
        user = problem.users[n]
        t = problem.t
        ratio = (t - 1) / t
        alpha = problem.weights.alpha
        beta = problem.weights.beta
        values = []
        for level in range(1, len(user.sizes) + 1):
            rate = user.sizes[level - 1]
            success = user.delta * delivery_success_probability(
                rate, user.cap_mbps, self.knee, self.steepness
            )
            expected_delay = user.delay_of_rate(rate)
            variance_penalty = beta * ratio * (
                success * (level - user.qbar) ** 2
                + (1.0 - success) * user.qbar ** 2
            )
            values.append(success * level - alpha * expected_delay - variance_penalty)
        return tuple(values)

    def allocate(self, problem: SlotProblem) -> List[int]:
        items = [
            ItemCurve.from_sequences(
                self._curve(problem, n),
                problem.users[n].sizes,
                cap=problem.users[n].cap_mbps,
            )
            for n in range(problem.num_users)
        ]
        skip_values = tuple(
            problem.skip_value(n) for n in range(problem.num_users)
        )
        knapsack = SeparableKnapsack(
            items,
            problem.budget_mbps,
            allow_skip=problem.allow_skip,
            skip_values=skip_values if problem.allow_skip else tuple(),
            group_of=problem.router_of,
            group_budgets=problem.router_budgets_mbps,
        )
        solution = combined_greedy(knapsack)
        return [k + 1 if k >= 0 else 0 for k in solution.options]

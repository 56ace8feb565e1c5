"""The object ``SlotProblem``, kept as the oracle for the array carrier.

Before the slot problem became one frozen carrier of ``(N, L)`` and
``(N,)`` arrays, it held one :class:`~repro.core.allocation.UserSlotState`
per user and evaluated eq. (9) one user at a time.  This is that
class, verbatim, renamed :class:`ReferenceSlotProblem`.
``tests/core/test_problem_oracle.py`` holds the carrier's
``objective_curve``, ``skip_value``, ``to_knapsack``,
``objective_value``, ``total_rate`` and ``is_feasible`` to it with
``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.allocation import UserSlotState
from repro.core.decomposition import skip_objective, slot_objective_curve
from repro.core.qoe import QoEWeights
from repro.errors import ConfigurationError
from repro.knapsack.problem import ItemCurve, SeparableKnapsack


@dataclass(frozen=True)
class ReferenceSlotProblem:
    """The per-slot problem (5)-(7) for all users.

    ``allow_skip`` enables the quality-0 degradation path (delivering
    nothing to a user); the paper's model always delivers at least
    level 1, but the real-system emulation needs the escape hatch when
    throughput estimates overshoot.
    """

    t: int
    users: Tuple[UserSlotState, ...]
    budget_mbps: float
    weights: QoEWeights
    allow_skip: bool = False
    #: Optional shared-medium topology: router index per user plus a
    #: budget per router.  The paper folds all air-time into the one
    #: server budget B(t); router-aware allocation is the natural
    #: refinement for the two-router setup of Section VI.
    router_of: Tuple[int, ...] = None
    router_budgets_mbps: Tuple[float, ...] = None

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ConfigurationError(f"slot index must be >= 1, got {self.t}")
        if not self.users:
            raise ConfigurationError("a slot problem needs at least one user")
        if self.budget_mbps < 0:
            raise ConfigurationError(
                f"budget must be non-negative, got {self.budget_mbps}"
            )
        if (self.router_of is None) != (self.router_budgets_mbps is None):
            raise ConfigurationError(
                "router_of and router_budgets_mbps must be provided together"
            )
        if self.router_of is not None:
            if len(self.router_of) != len(self.users):
                raise ConfigurationError("router_of must have one entry per user")
            num_routers = len(self.router_budgets_mbps)
            for n, router in enumerate(self.router_of):
                if not 0 <= router < num_routers:
                    raise ConfigurationError(
                        f"user {n} router index {router} outside 0..{num_routers - 1}"
                    )

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def num_levels(self) -> int:
        return len(self.users[0].sizes)

    def objective_curve(self, n: int) -> Tuple[float, ...]:
        """``(h_n(1), ..., h_n(L))`` for user ``n`` (eq. (9))."""
        user = self.users[n]
        return slot_objective_curve(
            self.t,
            user.qbar,
            user.delta,
            self.weights.alpha,
            self.weights.beta,
            user.delays,
        )

    def skip_value(self, n: int) -> float:
        """``h_n(0)`` for user ``n``."""
        return skip_objective(self.t, self.users[n].qbar, self.weights.beta)

    def to_knapsack(self) -> SeparableKnapsack:
        """Translate into the generic separable knapsack instance.

        Option ``k`` of item ``n`` corresponds to quality level
        ``k + 1``; the skip option (when enabled) is level 0.
        """
        items = [
            ItemCurve.from_sequences(
                self.objective_curve(n), user.sizes, cap=user.cap_mbps
            )
            for n, user in enumerate(self.users)
        ]
        skip_values = tuple(self.skip_value(n) for n in range(self.num_users))
        return SeparableKnapsack(
            items,
            self.budget_mbps,
            allow_skip=self.allow_skip,
            skip_values=skip_values if self.allow_skip else tuple(),
            group_of=self.router_of,
            group_budgets=self.router_budgets_mbps,
        )

    def objective_value(self, levels: Sequence[int]) -> float:
        """Total ``sum_n h_n(q_n)`` of an allocation (levels, 0 = skip)."""
        if len(levels) != self.num_users:
            raise ConfigurationError(
                f"expected {self.num_users} levels, got {len(levels)}"
            )
        total = 0.0
        for n, level in enumerate(levels):
            if level == 0:
                total += self.skip_value(n)
            else:
                total += self.objective_curve(n)[level - 1]
        return total

    def total_rate(self, levels: Sequence[int]) -> float:
        """Total sending rate of an allocation."""
        return sum(
            self.users[n].sizes[level - 1] if level > 0 else 0.0
            for n, level in enumerate(levels)
        )

    def is_feasible(self, levels: Sequence[int]) -> bool:
        """Check constraints (6)-(7), plus router budgets when present."""
        for n, level in enumerate(levels):
            if level < 0 or level > len(self.users[n].sizes):
                return False
            if level == 0 and not self.allow_skip:
                return False
            if level > 0 and self.users[n].sizes[level - 1] > self.users[n].cap_mbps + 1e-9:
                return False
        if self.total_rate(levels) > self.budget_mbps + 1e-9:
            return False
        if self.router_of is not None:
            totals = [0.0] * len(self.router_budgets_mbps)
            for n, level in enumerate(levels):
                if level > 0:
                    totals[self.router_of[n]] += self.users[n].sizes[level - 1]
            for total, budget in zip(totals, self.router_budgets_mbps):
                if total > budget + 1e-9:
                    return False
        return True

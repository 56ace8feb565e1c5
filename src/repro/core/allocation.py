"""Per-slot quality allocation — Algorithm 1 of the paper.

:class:`SlotProblem` carries everything the per-slot problem (5)-(7)
needs: each user's rate curve, the expected delay at each of its
levels, prediction accuracy, running viewed-quality mean, and the two
throughput constraints.
:class:`DensityValueGreedyAllocator` solves it with the paper's
combined density/value greedy, guaranteed to reach at least half the
per-slot optimum under the model's concavity/convexity assumptions
(Theorem 1).  It and its two ablation halves pick one of two
bit-identical solvers by seat count (:data:`SWEEP_MIN_USERS`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import ClassVar, List, Sequence, Tuple

from repro.core.decomposition import skip_objective, slot_objective_curve
from repro.core.qoe import QoEWeights
from repro.errors import ConfigurationError
from repro.kernel.batch import SlotBatch
from repro.kernel.solver import solve_batch
from repro.knapsack.greedy import combined_greedy, density_greedy, value_greedy
from repro.knapsack.problem import ItemCurve, SeparableKnapsack


@dataclass(frozen=True)
class UserSlotState:
    """One user's inputs to the per-slot problem.

    Attributes
    ----------
    sizes:
        ``(f^R(1), ..., f^R(L))`` — Mbps-equivalent size per level for
        the content this user needs this slot.
    delays:
        ``(E[d_n(f^R(1))], ..., E[d_n(f^R(L))])`` — the expected
        delivery delay of sending each of ``sizes``: the M/M/1 model
        in the simulator, the polynomial predictor in the real system.
    delta:
        Prediction success probability estimate ``delta_bar_n(t)``.
    qbar:
        Running mean of viewed quality ``qbar_n(t-1)``.
    cap_mbps:
        Per-user throughput ``B_n(t)`` (estimate or ground truth).
        When the scheduler runs on estimates this is the
        safety-discounted value a careful allocator should respect.
    raw_cap_mbps:
        The undiscounted estimate.  Heuristics that trust their
        throughput estimation at face value (Firefly's AQC) read this
        one; defaults to ``cap_mbps``.
    """

    sizes: Tuple[float, ...]
    delays: Tuple[float, ...]
    delta: float
    qbar: float
    cap_mbps: float
    raw_cap_mbps: float = None

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ConfigurationError("a user needs at least one quality level")
        if len(self.delays) != len(self.sizes):
            raise ConfigurationError(
                f"expected one delay per level ({len(self.sizes)}), "
                f"got {len(self.delays)}"
            )
        if not 0.0 <= self.delta <= 1.0:
            raise ConfigurationError(f"delta must be in [0, 1], got {self.delta}")
        if self.qbar < 0:
            raise ConfigurationError(f"qbar must be non-negative, got {self.qbar}")
        if self.cap_mbps < 0:
            raise ConfigurationError(f"cap must be non-negative, got {self.cap_mbps}")
        if self.raw_cap_mbps is None:
            object.__setattr__(self, "raw_cap_mbps", self.cap_mbps)
        elif self.raw_cap_mbps < 0:
            raise ConfigurationError(
                f"raw cap must be non-negative, got {self.raw_cap_mbps}"
            )


@dataclass(frozen=True)
class SlotProblem:
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


def _options_to_levels(options: Sequence[int]) -> List[int]:
    """Map knapsack option indices back to quality levels."""
    return [k + 1 if k >= 0 else 0 for k in options]


class QualityAllocator(abc.ABC):
    """Interface shared by Algorithm 1, the baselines, and the oracle."""

    #: Human-readable name used in reports and figures.
    name: str = "allocator"

    @abc.abstractmethod
    def allocate(self, problem: SlotProblem) -> List[int]:
        """Pick a quality level (0..L; 0 = skip) for every user."""

    def reset(self) -> None:
        """Clear any cross-slot internal state (default: stateless)."""


#: Seat count from which a slot is solved by the sorted sweep instead
#: of the heap.  Both give the same levels; the sweep pays a fixed
#: numpy cost per slot and the heap O(log N) per upgrade.  On setup-1
#: slot problems from ``EdgeServer`` (2-vCPU Xeon) the heap was the
#: cheaper up to 18 seats, the two were even at 20, and the sweep was
#: the cheaper from 24 on (1.3-2x at 32 seats).
SWEEP_MIN_USERS = 20

_GREEDY = {
    "combined": combined_greedy,
    "density": density_greedy,
    "value": value_greedy,
}


class _UpgradeGreedyAllocator(QualityAllocator):
    """Algorithm 1's upgrade greedy in one attractiveness ``order``.

    From :data:`SWEEP_MIN_USERS` seats on, the slot is solved as a
    :class:`~repro.kernel.batch.SlotBatch` by
    :func:`~repro.kernel.solver.solve_batch`; below that, on a ragged
    level menu, or when the sweep refuses the slot, by the heap greedy
    on :meth:`SlotProblem.to_knapsack`.  The two are bit-identical
    (``tests/kernel``), so the seat count only picks the cost.
    """

    order: ClassVar[str] = "combined"

    def allocate(self, problem: SlotProblem) -> List[int]:
        if problem.num_users >= SWEEP_MIN_USERS:
            try:
                levels = solve_batch(SlotBatch.from_problem(problem), self.order)
            except ConfigurationError:  # a ragged level menu has no (N, L) form
                levels = None
            if levels is not None:
                return levels.tolist()
        solution = _GREEDY[self.order](problem.to_knapsack())
        return _options_to_levels(solution.options)


@dataclass
class DensityValueGreedyAllocator(_UpgradeGreedyAllocator):
    """Algorithm 1: the better of density-greedy and value-greedy.

    Stateless across slots — all the coupling lives in the
    ``qbar``/``delta`` fields of the :class:`SlotProblem`, which the
    :class:`~repro.core.scheduler.CollaborativeVrScheduler` maintains.
    """

    name: str = field(default="density-value-greedy", init=False)


@dataclass
class DensityGreedyAllocator(_UpgradeGreedyAllocator):
    """Density-greedy half of Algorithm 1 (ablation)."""

    name: str = field(default="density-greedy", init=False)
    order = "density"


@dataclass
class ValueGreedyAllocator(_UpgradeGreedyAllocator):
    """Value-greedy half of Algorithm 1 (ablation)."""

    name: str = field(default="value-greedy", init=False)
    order = "value"

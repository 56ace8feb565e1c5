"""Per-slot quality allocation — Algorithm 1 of the paper.

:class:`SlotProblem` carries everything the per-slot problem (5)-(7)
needs as flat arrays: every user's rate curve and the expected delay
at each of its levels (``(N, L)``), prediction accuracy, running
viewed-quality mean and throughput cap (``(N,)``), and the server
budget.
:class:`DensityValueGreedyAllocator` solves it with the paper's
combined density/value greedy, guaranteed to reach at least half the
per-slot optimum under the model's concavity/convexity assumptions
(Theorem 1).  It and its two ablation halves pick one of two
bit-identical solvers by seat count (:data:`SWEEP_MIN_USERS`).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.decomposition import skip_objective, slot_objective_curve
from repro.core.qoe import QoEWeights
from repro.errors import ConfigurationError
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


_EPS = 1e-9


@dataclass(frozen=True)
class SlotProblem:
    """The per-slot problem (5)-(7) for all users, as flat arrays.

    ``sizes[n, k]`` is user ``n``'s size ``f^R(k + 1)`` and
    ``delays[n, k]`` its expected delay of sending it; both are
    ``(N, L)`` float64, and every row of ``sizes`` is strictly
    increasing.  ``delta``, ``qbar``, ``caps_mbps`` and
    ``raw_caps_mbps`` are ``(N,)``: the fields of
    :class:`UserSlotState`, one entry per user.  ``allow_skip``
    enables the quality-0 degradation path (delivering nothing to a
    user); the paper's model always delivers at least level 1, but the
    real-system emulation needs the escape hatch when throughput
    estimates overshoot.  The arrays are not copied: the caller hands
    over arrays it owns.
    """

    t: int
    sizes: np.ndarray
    delays: np.ndarray
    delta: np.ndarray
    qbar: np.ndarray
    caps_mbps: np.ndarray
    raw_caps_mbps: np.ndarray
    budget_mbps: float
    weights: QoEWeights
    allow_skip: bool = False
    #: Optional shared-medium topology: router index per user plus a
    #: budget per router.  The paper folds all air-time into the one
    #: server budget B(t); router-aware allocation is the natural
    #: refinement for the two-router setup of Section VI.
    router_of: Optional[np.ndarray] = None
    router_budgets_mbps: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ConfigurationError(f"slot index must be >= 1, got {self.t}")
        sizes = self.sizes
        if sizes.ndim != 2 or sizes.shape[0] < 1 or sizes.shape[1] < 1:
            raise ConfigurationError(
                f"sizes must be (N, L) with N, L >= 1, got {sizes.shape}"
            )
        if self.delays.shape != sizes.shape:
            raise ConfigurationError(
                f"delays shape {self.delays.shape} != sizes shape {sizes.shape}"
            )
        n = sizes.shape[0]
        for name in ("delta", "qbar", "caps_mbps", "raw_caps_mbps"):
            if getattr(self, name).shape != (n,):
                raise ConfigurationError(
                    f"{name} must have shape ({n},), got {getattr(self, name).shape}"
                )
        for name in ("sizes", "delays", "delta", "qbar", "caps_mbps", "raw_caps_mbps"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigurationError(f"{name} must be finite")
        for name in ("qbar", "caps_mbps", "raw_caps_mbps"):
            if (getattr(self, name) < 0.0).any():
                raise ConfigurationError(f"{name} must be non-negative")
        if ((self.delta < 0.0) | (self.delta > 1.0)).any():
            raise ConfigurationError("delta must be in [0, 1]")
        if not 0.0 <= self.budget_mbps < math.inf:  # False for NaN
            raise ConfigurationError(
                f"budget must be finite and non-negative, got {self.budget_mbps}"
            )
        if (sizes[:, 1:] - sizes[:, :-1] <= _EPS).any():
            raise ConfigurationError("size rows must be strictly increasing")
        if (self.router_of is None) != (self.router_budgets_mbps is None):
            raise ConfigurationError(
                "router_of and router_budgets_mbps must be provided together"
            )
        if self.router_of is not None:
            if self.router_of.shape != (n,):
                raise ConfigurationError("router_of must have one entry per user")
            num_routers = len(self.router_budgets_mbps)
            if ((self.router_of < 0) | (self.router_of >= num_routers)).any():
                raise ConfigurationError(
                    f"a router index is outside 0..{num_routers - 1}"
                )

    @classmethod
    def from_users(
        cls,
        t: int,
        users: Sequence[UserSlotState],
        budget_mbps: float,
        weights: QoEWeights,
        allow_skip: bool = False,
        router_of: Optional[Sequence[int]] = None,
        router_budgets_mbps: Optional[Sequence[float]] = None,
    ) -> "SlotProblem":
        """Stack one :class:`UserSlotState` per user into a slot problem.

        Raises :class:`~repro.errors.ConfigurationError` when the users
        disagree on the number of levels: a slot problem is ``(N, L)``.
        """
        level_counts = sorted({len(user.sizes) for user in users})
        if len(level_counts) > 1:
            raise ConfigurationError(
                "every user of a slot problem needs the same number of "
                f"levels; got {level_counts}"
            )

        def column(name: str) -> np.ndarray:
            return np.array([getattr(user, name) for user in users], dtype=float)

        return cls(
            t=t,
            sizes=column("sizes"),
            delays=column("delays"),
            delta=column("delta"),
            qbar=column("qbar"),
            caps_mbps=column("cap_mbps"),
            raw_caps_mbps=column("raw_cap_mbps"),
            budget_mbps=budget_mbps,
            weights=weights,
            allow_skip=allow_skip,
            router_of=(
                np.array(router_of, dtype=np.int64)
                if router_of is not None
                else None
            ),
            router_budgets_mbps=(
                np.array(router_budgets_mbps, dtype=float)
                if router_budgets_mbps is not None
                else None
            ),
        )

    @property
    def num_users(self) -> int:
        return int(self.sizes.shape[0])

    @property
    def num_levels(self) -> int:
        return int(self.sizes.shape[1])

    def gain_matrix(self) -> np.ndarray:
        """``(N, L)`` matrix of eq. (9): entry ``[n, q-1]`` is ``h_n(q)``.

        Bit-identical to
        :func:`repro.core.decomposition.slot_objective` evaluated per
        entry — same operation order, squares via multiplication.
        """
        levels = np.arange(1, self.num_levels + 1, dtype=float)[None, :]
        ratio = (self.t - 1) / self.t
        delta = self.delta[:, None]
        qbar = self.qbar[:, None]
        deviation = levels - qbar
        variance_penalty = delta * ratio * (deviation * deviation) + (
            1.0 - delta
        ) * ratio * (qbar * qbar)
        return (
            delta * levels
            - self.weights.alpha * self.delays
            - self.weights.beta * variance_penalty
        )

    def skip_values(self) -> np.ndarray:
        """``(N,)`` vector of ``h_n(0)`` — the value of skipping."""
        ratio = (self.t - 1) / self.t
        return -self.weights.beta * ratio * (self.qbar * self.qbar)

    def objective_curve(self, n: int) -> Tuple[float, ...]:
        """``(h_n(1), ..., h_n(L))`` for user ``n`` (eq. (9))."""
        return slot_objective_curve(
            self.t,
            float(self.qbar[n]),
            float(self.delta[n]),
            self.weights.alpha,
            self.weights.beta,
            self.delays[n].tolist(),
        )

    def skip_value(self, n: int) -> float:
        """``h_n(0)`` for user ``n``."""
        return skip_objective(self.t, float(self.qbar[n]), self.weights.beta)

    def to_knapsack(self) -> SeparableKnapsack:
        """Translate into the generic separable knapsack instance.

        Option ``k`` of item ``n`` corresponds to quality level
        ``k + 1``; the skip option (when enabled) is level 0.
        """
        caps = self.caps_mbps.tolist()
        items = [
            ItemCurve(tuple(gains), tuple(sizes), caps[n])
            for n, (gains, sizes) in enumerate(
                zip(self.gain_matrix().tolist(), self.sizes.tolist())
            )
        ]
        routed = self.router_of is not None
        return SeparableKnapsack(
            items,
            self.budget_mbps,
            allow_skip=self.allow_skip,
            skip_values=(
                tuple(self.skip_values().tolist()) if self.allow_skip else tuple()
            ),
            group_of=tuple(self.router_of.tolist()) if routed else None,
            group_budgets=(
                tuple(self.router_budgets_mbps.tolist()) if routed else None
            ),
        )

    def objective_value(self, levels: Sequence[int]) -> float:
        """Total ``sum_n h_n(q_n)`` of an allocation (levels, 0 = skip)."""
        if len(levels) != self.num_users:
            raise ConfigurationError(
                f"expected {self.num_users} levels, got {len(levels)}"
            )
        gains = self.gain_matrix().tolist()
        skips = self.skip_values().tolist()
        total = 0.0
        for n, level in enumerate(levels):
            if level == 0:
                total += skips[n]
            else:
                total += gains[n][level - 1]
        return total

    def total_rate(self, levels: Sequence[int]) -> float:
        """Total sending rate of an allocation."""
        sizes = self.sizes.tolist()
        return sum(
            sizes[n][level - 1] if level > 0 else 0.0
            for n, level in enumerate(levels)
        )

    def is_feasible(self, levels: Sequence[int]) -> bool:
        """Check constraints (6)-(7), plus router budgets when present."""
        sizes = self.sizes.tolist()
        caps = self.caps_mbps.tolist()
        num_levels = self.num_levels
        for n, level in enumerate(levels):
            if level < 0 or level > num_levels:
                return False
            if level == 0 and not self.allow_skip:
                return False
            if level > 0 and sizes[n][level - 1] > caps[n] + _EPS:
                return False
        if self.total_rate(levels) > self.budget_mbps + _EPS:
            return False
        if self.router_of is not None:
            router_of = self.router_of.tolist()
            budgets = self.router_budgets_mbps.tolist()
            totals = [0.0] * len(budgets)
            for n, level in enumerate(levels):
                if level > 0:
                    totals[router_of[n]] += sizes[n][level - 1]
            for total, budget in zip(totals, budgets):
                if total > budget + _EPS:
                    return False
        return True

    def nbytes(self) -> int:
        """Memory footprint of the problem's arrays (documentation aid)."""
        arrays = (
            self.sizes, self.delays, self.delta, self.qbar, self.caps_mbps,
            self.raw_caps_mbps, self.router_of, self.router_budgets_mbps,
        )
        return sum(a.nbytes for a in arrays if a is not None)


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

    From :data:`SWEEP_MIN_USERS` seats on, the slot's arrays are solved
    by :func:`~repro.kernel.solver.solve_batch`; below that, or when
    the sweep refuses the slot, by the heap greedy on
    :meth:`SlotProblem.to_knapsack`.  The two are bit-identical
    (``tests/kernel``), so the seat count only picks the cost.
    """

    order: ClassVar[str] = "combined"

    def allocate(self, problem: SlotProblem) -> List[int]:
        if problem.num_users >= SWEEP_MIN_USERS:
            levels = solve_batch(problem, self.order)
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

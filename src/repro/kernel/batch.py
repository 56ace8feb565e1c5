"""Flat-array view of one slot's allocation inputs.

The object pipeline builds a :class:`~repro.core.allocation.SlotProblem`
out of ``N`` per-user dataclasses, each carrying its sizes and its
expected delay at every level, and evaluates eq. (9) one level at a
time.  :class:`SlotBatch` carries the same numbers as a handful of
``(N, L)`` / ``(N,)`` numpy arrays, so the gain matrix, the M/M/1
delays, and the greedy candidate sort are each one vectorized sweep.
All arithmetic matches the scalar path bit-for-bit:
``gain_matrix()[n, q-1] == slot_objective(q, ...)`` exactly (the
scalar objective squares via multiplication for this reason), and
:func:`mm1_delay_matrix` replicates
:meth:`~repro.simulation.delaymodel.MM1DelayModel.delay` branch by
branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.qoe import QoEWeights
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.core.allocation import SlotProblem

_EPS = 1e-9


def mm1_delay_matrix(
    rates: np.ndarray,
    bandwidth_mbps: np.ndarray,
    max_delay: float = 100.0,
) -> np.ndarray:
    """Vectorized eq. (13): ``d = min(f / (B - f), max_delay)``.

    ``rates`` is ``(N, L)`` and ``bandwidth_mbps`` is ``(N,)``; the
    result matches ``MM1DelayModel(max_delay).delay(rates[n, k], B[n])``
    bit-for-bit, including the zero-bandwidth and saturation guards.
    """
    if max_delay <= 0:
        raise ConfigurationError(f"max_delay must be positive, got {max_delay}")
    rates = np.asarray(rates, dtype=float)
    bandwidth = np.asarray(bandwidth_mbps, dtype=float)[:, None]
    if np.any(rates < 0):
        raise ConfigurationError("rates must be non-negative")
    with np.errstate(divide="ignore", invalid="ignore"):
        queueing = rates / (bandwidth - rates)
    delays = np.minimum(queueing, max_delay)
    # rate >= bandwidth diverges (or goes negative past the pole).
    delays = np.where(rates >= bandwidth, max_delay, delays)
    # Dead link: max_delay when anything is sent, 0 when idle.
    dead = bandwidth <= 0
    delays = np.where(dead & (rates > 0), max_delay, delays)
    delays = np.where(dead & (rates <= 0), 0.0, delays)
    return delays


@dataclass(frozen=True)
class SlotBatch:
    """All users' per-slot inputs as flat arrays.

    Attributes mirror :class:`~repro.core.allocation.SlotProblem` /
    :class:`~repro.core.allocation.UserSlotState` field by field;
    ``sizes`` and ``delays`` are ``(N, L)``, the per-user statistics
    are ``(N,)``.  Rows of ``sizes`` must be strictly increasing — the
    same contract :class:`~repro.knapsack.problem.ItemCurve` enforces.
    """

    t: int
    sizes: np.ndarray
    delays: np.ndarray
    delta: np.ndarray
    qbar: np.ndarray
    caps_mbps: np.ndarray
    budget_mbps: float
    weights: QoEWeights
    allow_skip: bool = False
    router_of: Optional[np.ndarray] = None
    router_budgets_mbps: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ConfigurationError(f"slot index must be >= 1, got {self.t}")
        if self.sizes.ndim != 2 or self.sizes.shape[1] < 1:
            raise ConfigurationError(
                f"sizes must be (N, L) with L >= 1, got {self.sizes.shape}"
            )
        if self.delays.shape != self.sizes.shape:
            raise ConfigurationError(
                f"delays shape {self.delays.shape} != sizes shape {self.sizes.shape}"
            )
        n = self.sizes.shape[0]
        for name in ("delta", "qbar", "caps_mbps"):
            if getattr(self, name).shape != (n,):
                raise ConfigurationError(
                    f"{name} must have shape ({n},), got {getattr(self, name).shape}"
                )
        if self.budget_mbps < 0:
            raise ConfigurationError(
                f"budget must be non-negative, got {self.budget_mbps}"
            )
        if np.any(self.delta < 0.0) or np.any(self.delta > 1.0):
            raise ConfigurationError("delta must be in [0, 1]")
        if self.sizes.shape[1] > 1 and np.any(
            np.diff(self.sizes, axis=1) <= _EPS
        ):
            raise ConfigurationError("size rows must be strictly increasing")
        if (self.router_of is None) != (self.router_budgets_mbps is None):
            raise ConfigurationError(
                "router_of and router_budgets_mbps must be provided together"
            )
        if self.router_of is not None and self.router_budgets_mbps is not None:
            if self.router_of.shape != (n,):
                raise ConfigurationError("router_of must have one entry per user")
            num_routers = len(self.router_budgets_mbps)
            if np.any((self.router_of < 0) | (self.router_of >= num_routers)):
                raise ConfigurationError(
                    f"a router index is outside 0..{num_routers - 1}"
                )

    @property
    def num_users(self) -> int:
        return int(self.sizes.shape[0])

    @property
    def num_levels(self) -> int:
        return int(self.sizes.shape[1])

    @classmethod
    def from_problem(cls, problem: SlotProblem) -> "SlotBatch":
        """Flatten a :class:`SlotProblem` (rectangular level menus only).

        Raises :class:`~repro.errors.ConfigurationError` when users
        disagree on the number of levels; the allocators of
        :mod:`repro.core.allocation` catch that and solve the slot
        with the heap greedy instead.
        """
        num_levels = problem.num_levels
        for user in problem.users:
            if len(user.sizes) != num_levels:
                raise ConfigurationError(
                    "SlotBatch requires a rectangular level menu; got "
                    f"{len(user.sizes)} levels vs {num_levels}"
                )
        return cls(
            t=problem.t,
            sizes=np.array([user.sizes for user in problem.users], dtype=float),
            delays=np.array([user.delays for user in problem.users], dtype=float),
            delta=np.array([user.delta for user in problem.users], dtype=float),
            qbar=np.array([user.qbar for user in problem.users], dtype=float),
            caps_mbps=np.array(
                [user.cap_mbps for user in problem.users], dtype=float
            ),
            budget_mbps=problem.budget_mbps,
            weights=problem.weights,
            allow_skip=problem.allow_skip,
            router_of=(
                np.array(problem.router_of, dtype=np.int64)
                if problem.router_of is not None
                else None
            ),
            router_budgets_mbps=(
                np.array(problem.router_budgets_mbps, dtype=float)
                if problem.router_budgets_mbps is not None
                else None
            ),
        )

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

    def nbytes(self) -> int:
        """Memory footprint of the batch arrays (documentation aid)."""
        total = self.sizes.nbytes + self.delays.nbytes
        total += self.delta.nbytes + self.qbar.nbytes + self.caps_mbps.nbytes
        if self.router_of is not None:
            total += self.router_of.nbytes
        if self.router_budgets_mbps is not None:
            total += self.router_budgets_mbps.nbytes
        return int(total)

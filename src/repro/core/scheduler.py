"""Online scheduler: the state machine around the per-slot allocator.

The decomposition couples slots only through two running statistics
per user — the viewed-quality mean ``qbar_n(t-1)`` and the prediction
accuracy estimate ``delta_bar_n(t)``.  The scheduler owns those, turns
a slot's raw inputs (rate curves, the expected delay at each level,
throughput estimates) into a
:class:`~repro.core.allocation.SlotProblem`, delegates to any
:class:`~repro.core.allocation.QualityAllocator`, and folds the slot's
realized outcome back into the running state and the QoE ledgers.

Both the trace-driven simulator (Section IV) and the real-system
emulation (Sections V-VI) drive their allocation through this class,
so the algorithms are executed by identical code in both worlds.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.allocation import QualityAllocator, SlotProblem
from repro.core.qoe import QoEWeights, UserQoELedger, system_qoe
from repro.errors import ConfigurationError
from repro.obs.registry import Counter, MetricsRegistry
from repro.prediction.accuracy import PredictionAccuracyTracker, RunningMean


def _state_int(state: Mapping[str, object], key: str) -> int:
    value = state.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"scheduler user state {key!r} must be an int, got {value!r}"
        )
    return value


def _state_float(state: Mapping[str, object], key: str) -> float:
    value = state.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"scheduler user state {key!r} must be a number, got {value!r}"
        )
    return float(value)


class CollaborativeVrScheduler:
    """Per-episode scheduling state for a population of users.

    Parameters
    ----------
    num_users:
        Population size ``N``.
    allocator:
        Any quality allocator (Algorithm 1, a baseline, the oracle).
    weights:
        QoE trade-off weights.
    allow_skip:
        Propagated into every slot problem (see
        :class:`~repro.core.allocation.SlotProblem`).
    """

    def __init__(
        self,
        num_users: int,
        allocator: QualityAllocator,
        weights: QoEWeights,
        allow_skip: bool = False,
    ) -> None:
        if num_users < 1:
            raise ConfigurationError(f"num_users must be >= 1, got {num_users}")
        self.num_users = num_users
        self.allocator = allocator
        self.weights = weights
        self.allow_skip = allow_skip
        self._qbar = [RunningMean() for _ in range(num_users)]
        self._accuracy = [PredictionAccuracyTracker() for _ in range(num_users)]
        self.ledgers: List[UserQoELedger] = [UserQoELedger() for _ in range(num_users)]
        self._t = 0
        self._slots_counter: Optional[Counter] = None
        self._allocated_counter: Optional[Counter] = None
        self._skipped_counter: Optional[Counter] = None

    def attach_registry(self, registry: MetricsRegistry) -> None:
        """Mirror scheduling outcomes onto a metrics registry.

        Pure bookkeeping — attaching a registry changes no scheduling
        decision.  Registers slot and per-user allocation counters
        that :meth:`record_outcomes` keeps current.
        """
        self._slots_counter = registry.counter(
            "repro_sched_slots_total", "Slots folded into the scheduler state"
        )
        self._allocated_counter = registry.counter(
            "repro_sched_user_slots_allocated_total",
            "User-slots allocated a positive quality level",
        )
        self._skipped_counter = registry.counter(
            "repro_sched_user_slots_skipped_total",
            "User-slots skipped (level 0)",
        )

    @property
    def current_slot(self) -> int:
        """1-based index of the *next* slot to be allocated."""
        return self._t + 1

    def delta(self, user: int) -> float:
        """Current success-probability estimate for a user."""
        return self._accuracy[user].estimate()

    def qbar(self, user: int) -> float:
        """Running viewed-quality mean ``qbar_n(t-1)`` for a user."""
        return self._qbar[user].mean

    def build_slot_problem(
        self,
        sizes: Sequence[Sequence[float]],
        delays: Sequence[Sequence[float]],
        caps_mbps: Sequence[float],
        budget_mbps: float,
        raw_caps_mbps: Optional[Sequence[float]] = None,
        router_of: Optional[Sequence[int]] = None,
        router_budgets_mbps: Optional[Sequence[float]] = None,
    ) -> SlotProblem:
        """Assemble the next slot's problem from raw per-user inputs.

        ``delays[n][k]`` is user ``n``'s expected delay of sending
        ``sizes[n][k]``; every user has the same number of levels.
        Each input is copied, so the problem owns its arrays.
        """
        if not (len(sizes) == len(delays) == len(caps_mbps) == self.num_users):
            raise ConfigurationError(
                "sizes, delays, and caps must all have one entry per user"
            )
        if raw_caps_mbps is not None and len(raw_caps_mbps) != self.num_users:
            raise ConfigurationError("raw caps must have one entry per user")
        try:
            size_rows = np.array(sizes, dtype=float)
            delay_rows = np.array(delays, dtype=float)
        except ValueError as exc:  # ragged rows have no (N, L) form
            raise ConfigurationError(
                f"sizes and delays must be (N, L) rows: {exc}"
            ) from exc
        caps = np.array(caps_mbps, dtype=float)
        return SlotProblem(
            t=self.current_slot,
            sizes=size_rows,
            delays=delay_rows,
            delta=np.array(
                [self.delta(n) for n in range(self.num_users)], dtype=float
            ),
            qbar=np.array([mean.mean for mean in self._qbar], dtype=float),
            caps_mbps=caps,
            raw_caps_mbps=(
                np.array(raw_caps_mbps, dtype=float)
                if raw_caps_mbps is not None
                else caps
            ),
            budget_mbps=float(budget_mbps),
            weights=self.weights,
            allow_skip=self.allow_skip,
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

    def allocate(self, problem: SlotProblem) -> List[int]:
        """Run the configured allocator on a slot problem."""
        return self.allocator.allocate(problem)

    def record_outcomes(
        self,
        levels: Sequence[int],
        indicators: Sequence[int],
        delays: Sequence[float],
    ) -> None:
        """Fold one slot's realized results into the running state.

        ``levels[n]`` is the allocated quality (0 = skipped),
        ``indicators[n]`` the realized ``1_n(t)``, ``delays[n]`` the
        realized delivery delay.
        """
        if not (len(levels) == len(indicators) == len(delays) == self.num_users):
            raise ConfigurationError(
                "levels, indicators, and delays must all have one entry per user"
            )
        for n in range(self.num_users):
            level = int(levels[n])
            indicator = int(indicators[n])
            delay = float(delays[n])
            self.ledgers[n].record(level, indicator, delay)
            self._qbar[n].update(float(level * (indicator if level > 0 else 0)))
            if level > 0:
                # Skipped slots carry no information about prediction
                # accuracy: nothing was delivered to cover the FoV.
                self._accuracy[n].record(indicator)
            if level > 0 and self._allocated_counter is not None:
                self._allocated_counter.inc()
            elif level == 0 and self._skipped_counter is not None:
                self._skipped_counter.inc()
        if self._slots_counter is not None:
            self._slots_counter.inc()
        self._t += 1

    def total_qoe(self) -> float:
        """System QoE (eq. (1)) accumulated so far."""
        return system_qoe(self.ledgers, self.weights)

    def reset_user(self, user: int) -> None:
        """Clear one user's running state without touching the others.

        The serving layer reuses scheduler seats across sessions
        (join/leave churn); a new occupant must not inherit the
        previous session's ``qbar``, accuracy estimate, or ledger.
        """
        if not 0 <= user < self.num_users:
            raise ConfigurationError(
                f"user index must be in [0, {self.num_users}), got {user}"
            )
        self._qbar[user].reset()
        self._accuracy[user].reset()
        self.ledgers[user].reset()

    def export_user(self, user: int) -> Dict[str, object]:
        """One user's running statistics as a JSON-friendly dict.

        Captures the viewed-quality mean, the accuracy posterior, and
        the QoE ledger's five accumulators — the cross-slot state a
        session-migration handoff must carry so the target shard's
        scheduler continues exactly where the source left off.  Its
        size does not grow with the session's length.
        """
        if not 0 <= user < self.num_users:
            raise ConfigurationError(
                f"user index must be in [0, {self.num_users}), got {user}"
            )
        qbar_count, qbar_mean = self._qbar[user].export_state()
        trials, successes = self._accuracy[user].export_state()
        return {
            "qbar_count": qbar_count,
            "qbar_mean": qbar_mean,
            "accuracy_trials": trials,
            "accuracy_successes": successes,
            "ledger": self.ledgers[user].export_state(),
        }

    def import_user(self, user: int, state: Mapping[str, object]) -> None:
        """Reinstate one user's state from :meth:`export_user` output.

        Every field is checked before any is restored, so a refused
        blob leaves the user's state as it was.  The blob may come
        from JSON, which admits NaN and Infinity: a mean, a sum or a
        delay that is not a finite non-negative number is refused.
        ``"ledger"`` must be the accumulator object :meth:`export_user`
        writes.
        """
        if not 0 <= user < self.num_users:
            raise ConfigurationError(
                f"user index must be in [0, {self.num_users}), got {user}"
            )
        qbar_count = _state_int(state, "qbar_count")
        qbar_mean = _state_float(state, "qbar_mean")
        if qbar_count < 0 or not 0 <= qbar_mean < math.inf:
            raise ConfigurationError(
                "scheduler user state needs qbar_count >= 0 and a finite "
                f"qbar_mean >= 0, got {qbar_count} and {qbar_mean!r}"
            )
        trials = _state_int(state, "accuracy_trials")
        successes = _state_int(state, "accuracy_successes")
        ledger_state = state.get("ledger")
        if not isinstance(ledger_state, Mapping):
            raise ConfigurationError(
                "scheduler user state 'ledger' must be an object"
            )
        ledger = UserQoELedger()
        ledger.restore_state(ledger_state)
        # The only restore that can still refuse its input goes first.
        self._accuracy[user].restore_state(trials, successes)
        self._qbar[user].restore_state(qbar_count, qbar_mean)
        self.ledgers[user] = ledger

    def reset(self) -> None:
        """Clear all per-episode state, including the allocator's."""
        for mean in self._qbar:
            mean.reset()
        for tracker in self._accuracy:
            tracker.reset()
        for ledger in self.ledgers:
            ledger.reset()
        self.allocator.reset()
        self._t = 0

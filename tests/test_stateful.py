"""Stateful property tests (hypothesis rule-based state machines).

These hammer the long-lived mutable components — the client tile
cache and the online scheduler — with arbitrary operation sequences
and check their invariants after every step.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.content.database import ClientTileCache
from repro.core.allocation import DensityValueGreedyAllocator
from repro.core.qoe import QoEWeights
from repro.core.scheduler import CollaborativeVrScheduler


class TileCacheMachine(RuleBasedStateMachine):
    """LRU cache invariants under arbitrary insert/release sequences."""

    def __init__(self):
        super().__init__()
        self.capacity = 8
        self.cache = ClientTileCache(self.capacity)
        self.model = []  # insertion-recency order, oldest first

    @rule(video_id=st.integers(0, 30))
    def insert(self, video_id):
        released = self.cache.insert(video_id)
        if video_id in self.model:
            self.model.remove(video_id)
            assert released == []
        self.model.append(video_id)
        expected_released = []
        while len(self.model) > self.capacity:
            expected_released.append(self.model.pop(0))
        assert released == expected_released

    @rule()
    def release_all(self):
        released = self.cache.release_all()
        assert sorted(released) == sorted(self.model)
        self.model = []

    @invariant()
    def size_bounded(self):
        assert len(self.cache) <= self.capacity

    @invariant()
    def contents_match_model(self):
        assert len(self.cache) == len(self.model)
        for vid in self.model:
            assert vid in self.cache


TestTileCacheMachine = TileCacheMachine.TestCase
TestTileCacheMachine.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)


class SchedulerMachine(RuleBasedStateMachine):
    """Scheduler/ledger consistency under arbitrary slot outcomes."""

    NUM_USERS = 3
    SIZES = (8.0, 14.0, 24.0, 40.0)

    def __init__(self):
        super().__init__()
        self.scheduler = CollaborativeVrScheduler(
            self.NUM_USERS,
            DensityValueGreedyAllocator(),
            QoEWeights(0.05, 0.5),
            allow_skip=True,
        )
        self.viewed = [[] for _ in range(self.NUM_USERS)]
        self.delays = [[] for _ in range(self.NUM_USERS)]
        self.rng = np.random.default_rng(0)

    @rule(
        levels=st.lists(
            st.integers(0, 4), min_size=NUM_USERS, max_size=NUM_USERS
        ),
        indicator_bits=st.lists(
            st.booleans(), min_size=NUM_USERS, max_size=NUM_USERS
        ),
    )
    def record_slot(self, levels, indicator_bits):
        indicators = [
            int(bit) if level > 0 else 0
            for bit, level in zip(indicator_bits, levels)
        ]
        delays = [0.3 if level > 0 else 0.0 for level in levels]
        self.scheduler.record_outcomes(levels, indicators, delays)
        for n in range(self.NUM_USERS):
            self.viewed[n].append(levels[n] * indicators[n])
            self.delays[n].append(delays[n])

    @rule()
    def allocate_a_slot(self):
        """Allocation must always be feasible for the current state."""
        from repro.simulation.delaymodel import MM1DelayModel

        model = MM1DelayModel()
        problem = self.scheduler.build_slot_problem(
            [self.SIZES] * self.NUM_USERS,
            [model.delays(self.SIZES, 60.0)] * self.NUM_USERS,
            [60.0] * self.NUM_USERS,
            120.0,
        )
        levels = self.scheduler.allocate(problem)
        assert problem.is_feasible(levels)

    @invariant()
    def qbar_matches_viewed_mean(self):
        for n in range(self.NUM_USERS):
            if self.viewed[n]:
                expected = float(np.mean(self.viewed[n]))
                assert abs(self.scheduler.qbar(n) - expected) < 1e-9
            else:
                assert self.scheduler.qbar(n) == 0.0

    @invariant()
    def delta_in_unit_interval(self):
        for n in range(self.NUM_USERS):
            assert 0.0 <= self.scheduler.delta(n) <= 1.0

    @invariant()
    def ledger_horizon_consistent(self):
        for n in range(self.NUM_USERS):
            assert self.scheduler.ledgers[n].horizon == len(self.viewed[n])

    @invariant()
    def qoe_matches_manual_formula(self):
        weights = self.scheduler.weights
        for n in range(self.NUM_USERS):
            if not self.viewed[n]:
                continue
            series = np.array(self.viewed[n], dtype=float)
            expected = (
                series.sum()
                - weights.alpha * sum(self.delays[n])
                - weights.beta * len(series) * series.var()
            )
            assert abs(self.scheduler.ledgers[n].qoe(weights) - expected) < 1e-7


TestSchedulerMachine = SchedulerMachine.TestCase
TestSchedulerMachine.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)

"""Firefly's Adaptive Quality Control (LRU rate allocation).

Section IV of the paper: "Adaptive Quality Control algorithm in
Firefly, which uses Least Recently Used (LRU) algorithm to allocate
the rate for multiple users.  Due to its heuristic property and
similar setup in the original paper, it can be directly deployed to
our problem without modifications."

Reproduction: the server keeps a queue of users ordered by how long
ago they last received an *upgraded* (above-minimum) quality.  Each
slot it walks the queue front-to-back, granting every user the highest
quality level that fits both the user's *raw* throughput estimate and
the remaining server budget; users that receive an upgrade move to the
back of the queue.  Firefly trusts its throughput estimation at face
value — no safety discount, no delay or variance terms — which is
exactly the vulnerability to "inaccurate throughput estimation" the
paper's Section VI observes.
Users near the front of the queue therefore rotate through the high
quality levels — maximising instantaneous quality usage and fairness
over time, but (as the paper's figures show) producing large quality
variance and no delay awareness.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.allocation import QualityAllocator, SlotProblem
from repro.errors import InfeasibleAllocationError

_EPS = 1e-9


@dataclass
class FireflyAllocator(QualityAllocator):
    """LRU-ordered greedy max-quality fill (Firefly AQC)."""

    name: str = field(default="firefly", init=False)

    def __post_init__(self) -> None:
        # Insertion order == LRU order; key = user index.
        self._lru: "OrderedDict[int, None]" = OrderedDict()

    def reset(self) -> None:
        self._lru.clear()

    def _sync_users(self, num_users: int) -> None:
        """Admit new users at the front (they are maximally stale)."""
        known = set(self._lru)
        for n in range(num_users):
            if n not in known:
                self._lru[n] = None
                self._lru.move_to_end(n, last=False)
        for n in list(self._lru):
            if n >= num_users:
                del self._lru[n]

    def allocate(self, problem: SlotProblem) -> List[int]:
        self._sync_users(problem.num_users)
        levels: Dict[int, int] = {}

        # Everyone is entitled to the minimum level first — Firefly
        # always serves every connected user a frame.
        sizes = problem.sizes.tolist()
        raw_caps = problem.raw_caps_mbps.tolist()
        remaining = problem.budget_mbps
        for n, row in enumerate(sizes):
            if row[0] <= min(raw_caps[n], remaining) + _EPS:
                levels[n] = 1
                remaining -= row[0]
            elif problem.allow_skip:
                levels[n] = 0
            else:
                raise InfeasibleAllocationError(
                    f"user {n}: minimum level ({row[0]:.3f} Mbps) does not "
                    f"fit the remaining budget {remaining:.3f} Mbps and skipping "
                    "is disabled"
                )

        # LRU pass: stalest users upgrade to the highest level that
        # fits their cap and the leftover server budget.
        for n in list(self._lru):
            if levels[n] == 0:
                continue
            row = sizes[n]
            base = row[0]
            level = 1
            for candidate in range(len(row), 1, -1):
                size = row[candidate - 1]
                if size <= raw_caps[n] + _EPS and size - base <= remaining + _EPS:
                    level = candidate
                    break
            if level > 1:
                remaining -= row[level - 1] - base
                levels[n] = level
                # Served above minimum: becomes most-recently-used.
                self._lru.move_to_end(n)

        return [levels[n] for n in range(problem.num_users)]

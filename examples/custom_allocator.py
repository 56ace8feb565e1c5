#!/usr/bin/env python
"""Tutorial: plugging a custom allocator into the evaluation stack.

The per-slot interface is one method — ``allocate(SlotProblem) ->
levels`` — and everything else (trace replay, QoE accounting, the
testbed emulation) comes for free.  This example implements a small
original policy, **hysteresis greedy**, which reuses Algorithm 1's
engine but refuses to change any user's level by more than one step
per slot (a common production trick for encoder stability), and
benchmarks it against Algorithm 1.

Run:  python examples/custom_allocator.py
"""

from dataclasses import dataclass, field
from typing import Dict, List

from repro import (
    DensityValueGreedyAllocator,
    QualityAllocator,
    SimulationConfig,
    SlotProblem,
    TraceSimulator,
    comparison_table,
)


@dataclass
class HysteresisGreedyAllocator(QualityAllocator):
    """Algorithm 1, rate-limited to one level step per user per slot."""

    name: str = field(default="hysteresis-greedy", init=False)

    def __post_init__(self) -> None:
        self._inner = DensityValueGreedyAllocator()
        self._last: Dict[int, int] = {}

    def reset(self) -> None:
        self._inner.reset()
        self._last.clear()

    def allocate(self, problem: SlotProblem) -> List[int]:
        target = self._inner.allocate(problem)
        sizes = problem.sizes.tolist()
        caps = problem.caps_mbps.tolist()
        levels: List[int] = []
        for n, wanted in enumerate(target):
            previous = self._last.get(n, wanted)
            if wanted > previous + 1:
                wanted = previous + 1
            elif wanted < previous - 1:
                wanted = previous - 1
            # Clamping only ever *lowers* demand relative to the inner
            # solution or moves along the feasible ladder, but verify
            # the per-user cap in case the cap itself dropped.
            while wanted > 1 and sizes[n][wanted - 1] > caps[n]:
                wanted -= 1
            levels.append(wanted)
            self._last[n] = wanted
        # Final safety: if the smoothed allocation exceeds the server
        # budget (possible when many users ratchet up together), fall
        # back to the inner solution.
        if not problem.is_feasible(levels):
            levels = target
            self._last = dict(enumerate(target))
        return levels


def main() -> None:
    config = SimulationConfig(num_users=5, duration_slots=1200, seed=0)
    simulator = TraceSimulator(config)
    results = simulator.compare(
        {
            "algorithm 1": DensityValueGreedyAllocator(),
            "hysteresis": HysteresisGreedyAllocator(),
        },
        num_episodes=2,
    )
    metrics = ("qoe", "quality", "delay", "variance")
    print("Custom allocator vs Algorithm 1 (same traces):\n")
    print(comparison_table({k: v.means(metrics) for k, v in results.items()},
                           metrics))
    print(
        "\nThe rate-limited variant trades a little QoE for smoother"
        "\nlevel trajectories — exactly the kind of trade-off the"
        "\nSlotProblem interface makes cheap to explore."
    )


if __name__ == "__main__":
    main()

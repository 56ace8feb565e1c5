#!/usr/bin/env python
"""Quickstart: one slot of quality allocation with Algorithm 1.

Builds a small per-slot problem (5 users sharing an edge server),
solves it with the paper's density/value-greedy algorithm, and
compares against the exact optimum — on a laptop this is instant.

Run:  python examples/quickstart.py
"""

from repro import (
    DensityValueGreedyAllocator,
    MM1DelayModel,
    OfflineOptimalAllocator,
    QoEWeights,
    SlotProblem,
    UserSlotState,
)
from repro.content.rate import RateModel


def main() -> None:
    num_users = 5
    weights = QoEWeights(alpha=0.02, beta=0.5)
    rate_model = RateModel(seed=7)
    delay_model = MM1DelayModel()

    # Per-user state: content rate curves, bandwidth caps, running
    # statistics (here: slot t=10 with some history already built up).
    caps = [40.0, 55.0, 25.0, 70.0, 35.0]
    qbars = [3.0, 4.2, 1.8, 4.8, 2.5]
    deltas = [0.95, 0.90, 0.97, 0.88, 0.93]
    sizes = [rate_model.curve(content_id=n).as_tuple() for n in range(num_users)]
    users = tuple(
        UserSlotState(
            sizes=sizes[n],
            # Expected M/M/1 delay of sending each level on this link.
            delays=delay_model.delays(sizes[n], caps[n]),
            delta=deltas[n],
            qbar=qbars[n],
            cap_mbps=caps[n],
        )
        for n in range(num_users)
    )
    problem = SlotProblem.from_users(
        t=10,
        users=users,
        budget_mbps=36.0 * num_users,
        weights=weights,
    )

    greedy = DensityValueGreedyAllocator()
    optimal = OfflineOptimalAllocator()

    greedy_levels = greedy.allocate(problem)
    optimal_levels = optimal.allocate(problem)

    print("user  cap(Mbps)  qbar  delta  greedy  optimal")
    for n in range(num_users):
        print(
            f"{n:4d}  {caps[n]:9.1f}  {qbars[n]:4.1f}  {deltas[n]:5.2f}"
            f"  {greedy_levels[n]:6d}  {optimal_levels[n]:7d}"
        )

    v_greedy = problem.objective_value(greedy_levels)
    v_opt = problem.objective_value(optimal_levels)
    print(f"\ngreedy objective : {v_greedy:.4f}")
    print(f"optimal objective: {v_opt:.4f}")
    print(f"ratio            : {v_greedy / v_opt:.4f}  (Theorem 1 guarantees >= 0.5)")
    print(f"greedy rate used : {problem.total_rate(greedy_levels):.1f} / "
          f"{problem.budget_mbps:.1f} Mbps")


if __name__ == "__main__":
    main()

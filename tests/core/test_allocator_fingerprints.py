"""Pinned outputs of every allocator over seeded slot problems.

Each allocator runs, in order, over the same 200 seeded slot problems
(1 to 64 seats, with and without the skip option and router budgets,
``t`` up to 50), and the sha256 of what it returned — the level list,
or the name of the error it raised — is compared with a value recorded
before the slot problem became one array carrier.  A change to the
carrier, to any baseline's reading of it, or to either Algorithm 1
solver that moves a single level on a single problem changes a hash.
The stateful baselines (PAVQ, Firefly) keep one instance for the whole
sequence, so their cross-slot state is pinned too.
"""

import hashlib

import numpy as np
import pytest

from repro.core.allocation import (
    DensityGreedyAllocator,
    DensityValueGreedyAllocator,
    SlotProblem,
    UserSlotState,
    ValueGreedyAllocator,
)
from repro.core.baselines import (
    FireflyAllocator,
    MaxMinFairAllocator,
    PavqAllocator,
    UniformAllocator,
)
from repro.core.extensions import LossAwareAllocator
from repro.core.offline import OfflineOptimalAllocator
from repro.core.qoe import QoEWeights
from repro.errors import ReproError
from repro.simulation.delaymodel import MM1DelayModel

SEED = 26
NUM_PROBLEMS = 200
SEAT_COUNTS = (1, 2, 3, 5, 8, 12, 19, 20, 21, 32, 64)
OFFLINE_MAX_USERS = 8

#: sha256 of ``repr`` of each allocator's outputs, recorded with the
#: per-seat object ``SlotProblem`` (``tests/core/_reference_problem.py``).
FINGERPRINTS = {
    "density-greedy": (
        "82311ff3cdda785f37f6ea57db6b61bc42c93d6ec71790b72e505ce64d670499"
    ),
    "density-value-greedy": (
        "853e3f0753fb6ac50a01726ce57be4303a235529283f41b854749fede4a3f8d7"
    ),
    "firefly": (
        "b1461d907f7e9994431258975796aae205cfacc171185af35c24fd5ec57aa478"
    ),
    "loss-aware-greedy": (
        "629ece397dadf1ca3b1000ad2f66fad36430341ad9bd4aaa9023220a7556aead"
    ),
    "max-min-fair": (
        "20818983e33983de88acd5a51942e3606a1da6b254d2ce01ef7129bfc814952f"
    ),
    "offline-optimal": (
        "b2f004f82b803472bb560859142ec8c654b3b549e4310356859766d4b9b2cf2f"
    ),
    "pavq": (
        "17cc8bacd373aa1312301643cb3ca0c6afafb33f3bed47678e67c12cad195514"
    ),
    "uniform": (
        "36621e747b6eafaaece7ddec19b99d245745005ad79ca6d5a33aa2b2cd8f6c73"
    ),
    "value-greedy": (
        "a52543db84020c2e6fb039889aa30df7b26c5552491aee6c940df3dbd9aae39b"
    ),
}


def _sizes(base, growth, num_levels):
    row = [base]
    for _ in range(num_levels - 1):
        row.append(row[-1] * growth)
    return tuple(row)


def _problems():
    rng = np.random.default_rng(SEED)
    model = MM1DelayModel()
    weights = QoEWeights(alpha=0.02, beta=0.5)
    for i in range(NUM_PROBLEMS):
        num_users = SEAT_COUNTS[i % len(SEAT_COUNTS)]
        num_levels = int(rng.integers(1, 7))
        users = []
        for _ in range(num_users):
            sizes = _sizes(
                float(rng.uniform(0.5, 4.0)),
                float(rng.uniform(1.2, 2.0)),
                num_levels,
            )
            cap = float(rng.uniform(2.0, 60.0))
            bandwidth = cap * float(rng.uniform(0.8, 1.5))
            users.append(
                UserSlotState(
                    sizes=sizes,
                    delays=model.delays(sizes, bandwidth),
                    delta=float(rng.uniform(0.3, 1.0)),
                    qbar=float(rng.uniform(0.0, num_levels)),
                    cap_mbps=cap,
                    raw_cap_mbps=cap * float(rng.uniform(1.0, 1.3)),
                )
            )
        base_total = sum(u.sizes[0] for u in users)
        top_total = sum(u.sizes[-1] for u in users)
        budget = base_total * float(rng.uniform(0.8, 1.0)) + float(
            rng.uniform(0.0, 1.0)
        ) * (top_total - base_total)
        allow_skip = bool(rng.integers(0, 4))
        router_of = None
        router_budgets = None
        if num_users > 1 and rng.integers(0, 3) == 0:
            router_of = tuple(int(r) for r in rng.integers(0, 2, num_users))
            router_budgets = (budget * 0.6, budget * 0.6)
        yield SlotProblem.from_users(
            int(rng.integers(1, 51)),
            tuple(users),
            budget,
            weights,
            allow_skip=allow_skip,
            router_of=router_of,
            router_budgets_mbps=router_budgets,
        )


ALLOCATORS = {
    "density-value-greedy": DensityValueGreedyAllocator,
    "density-greedy": DensityGreedyAllocator,
    "value-greedy": ValueGreedyAllocator,
    "pavq": PavqAllocator,
    "firefly": FireflyAllocator,
    "uniform": UniformAllocator,
    "max-min-fair": MaxMinFairAllocator,
    "loss-aware-greedy": LossAwareAllocator,
    "offline-optimal": OfflineOptimalAllocator,
}


def _outputs(name):
    allocator = ALLOCATORS[name]()
    outputs = []
    for problem in _problems():
        if name == "offline-optimal" and problem.num_users > OFFLINE_MAX_USERS:
            continue
        try:
            outputs.append([int(level) for level in allocator.allocate(problem)])
        except ReproError as exc:
            outputs.append(type(exc).__name__)
    return outputs


def fingerprint(name):
    return hashlib.sha256(repr(_outputs(name)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(ALLOCATORS))
def test_levels_match_the_recorded_fingerprint(name):
    assert fingerprint(name) == FINGERPRINTS[name]


def test_problems_reach_both_solvers_and_every_outcome():
    """The sequence spans the heap and the sweep, skips and refusals."""
    problems = list(_problems())
    assert min(p.num_users for p in problems) == 1
    assert max(p.num_users for p in problems) == 64
    assert any(p.allow_skip for p in problems)
    assert any(not p.allow_skip for p in problems)
    assert any(p.router_of is not None for p in problems)
    outputs = _outputs("density-value-greedy")
    assert any(isinstance(o, str) for o in outputs)
    assert any(isinstance(o, list) and 0 in o for o in outputs)

"""The bench harness: every ``repro bench`` kind in one table.

:data:`BENCH_KINDS` maps each kind to its run function, its
``BENCH_*.json`` history file, its fixed full and quick parameters,
and the table it prints; ``repro bench`` is one loop over it.  The
run functions are pure, return JSON-ready dicts, and validate their
arguments, so tests call them directly at tiny scale:

* :func:`bench_allocator` — reference vs heap vs array Algorithm 1
  on random instances of growing size; all three must agree exactly.
* :func:`bench_simulator` — episode replay slots/s (cold and warm)
  and the serial vs ``max_workers`` episode fan-out.
* :func:`bench_kernel` — one slot of the per-user-object pipeline vs
  the array kernel, plus batched motion prediction against its scalar
  twin and ``CoverageEvaluator.indicators`` against per-user
  ``evaluate``; levels must agree on every slot.
* :func:`bench_serve` — paced loopback fleets: slot-deadline hit rate,
  p50/p99 slot latency and the largest fleet sustained at the target.
* :func:`bench_obs` — the slot-pipeline cost of full observability.
* :func:`bench_scale` — cluster deadline behaviour across shard counts.

:func:`persist_run` appends a run to a ``BENCH_*.json`` history file
(bounded to the most recent :data:`HISTORY_LIMIT` runs) so successive
commits can be compared.  Wall-clock numbers are hardware-dependent;
every run records ``cpu_count`` and the python version alongside.

A note on ``missed_reports`` in paced serve output: the fold deadline
for slot ``N`` is the top of slot ``N+1``, so a client's report must
round-trip within one ``slot_s`` of *wall* time.  On a contended
single-CPU box the shared event loop can starve the client coroutines
for a few slots, producing bursty missed-report counts (and, via lag
degradation, ``degraded_user_slots``) that do not reproduce on an
idle machine and do not move the deadline hit rate.
``tests/serve/test_missed_reports.py`` pins the invariant that the
same fleets under lockstep miss nothing.

A note on the serve bench's ``mux`` row at 128 clients: on a one-core
box the slot budget is lost in the planner, not on the wire.  The
solve itself is small: in ``SystemExperiment`` setup 1 scaled to 128
seats on a 2-vCPU Xeon box, the allocator takes the sorted sweep and
spends ~0.5-0.7 ms of CPU per slot in ``allocate``.  Before it, in
``EdgeServer.plan_slot``, one ``BatchDelayPredictor.delays`` Horner
sweep prices every seat at every level.  Encode and send stay near
3 ms at p99.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.content.projection import FieldOfView
from repro.content.tiles import GridWorld, TileGrid
from repro.core.allocation import DensityValueGreedyAllocator, SlotProblem
from repro.core.decomposition import slot_objective_curve
from repro.core.qoe import QoEWeights
from repro.errors import ConfigurationError
from repro.kernel.batch import mm1_delay_matrix
from repro.kernel.predict import BatchMotionPredictor
from repro.kernel.solver import solve_arrays, solve_batch
from repro.knapsack.greedy import combined_greedy
from repro.knapsack.problem import ItemCurve, SeparableKnapsack
from repro.knapsack.random_instances import random_instance
from repro.obs.config import DEFAULT_SAMPLE_EVERY, ObsConfig
from repro.prediction.fov import CoverageEvaluator
from repro.prediction.motion import LinearMotionPredictor
from repro.prediction.pose import Pose
from repro.serve.config import ServeConfig, serve_setup1
from repro.serve.loadgen import FleetReport, LoadGenConfig
from repro.serve.mux import run_serve_and_mux_fleet
from repro.shard.config import ShardClusterConfig
from repro.shard.coordinator import run_cluster_and_fleet
from repro.simulation import workers
from repro.simulation.delaymodel import MM1DelayModel
from repro.simulation.simulator import SimulationConfig, TraceSimulator

#: Runs kept per history file.
HISTORY_LIMIT = 20
#: Largest instance the O(N^2)-ish reference loop is timed on; above
#: it the heap and array solvers are compared against each other.
REFERENCE_SIZE_LIMIT = 2000
#: Acceptance ceiling for the observability overhead (percent).
MAX_OVERHEAD_PCT = 5.0


def _best_of(repeats: int, fn: Callable[[], object]) -> float:
    """Minimum wall-clock over ``repeats`` calls (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------- allocator


def _instance_arrays(problem: SeparableKnapsack):
    """Flat ``(values, weights, caps)`` view of a rectangular instance."""
    values = np.array([item.values for item in problem.items], dtype=float)
    weights = np.array([item.weights for item in problem.items], dtype=float)
    caps = np.array([item.cap for item in problem.items], dtype=float)
    return values, weights, caps


def bench_allocator(
    sizes: Sequence[int] = (5, 30, 100, 1000, 10000),
    repeats: int = 3,
    num_options: int = 6,
    seed: int = 0,
) -> Dict:
    """Time reference vs heap vs array greedy per instance size.

    Each size gets one fixed random instance (same ``seed`` → same
    instance across runs), solved ``repeats`` times per strategy; the
    minimum time is reported.  All strategies must return bit-identical
    solutions — a mismatch fails the benchmark loudly rather than
    reporting a meaningless speedup.  The quadratic-ish reference loop
    is only timed up to :data:`REFERENCE_SIZE_LIMIT` items
    (``reference_s`` is ``null`` beyond it); heap vs array covers the
    large sizes.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    rng = np.random.default_rng(seed)
    results: List[Dict] = []
    for num_items in sizes:
        problem = random_instance(
            rng, num_items=num_items, num_options=num_options, tightness=0.4
        )
        heap = combined_greedy(problem, strategy="heap")
        if num_items <= REFERENCE_SIZE_LIMIT:
            reference = combined_greedy(problem, strategy="reference")
            if reference.options != heap.options:
                raise ConfigurationError(
                    f"heap and reference disagree at N={num_items}: "
                    f"{heap.options} != {reference.options}"
                )
            t_ref = _best_of(
                repeats, lambda: combined_greedy(problem, strategy="reference")
            )
        else:
            t_ref = None
        values, weights, caps = _instance_arrays(problem)
        array = solve_arrays(values, weights, problem.budget, caps=caps)
        if array is None or array.options != heap.options:
            raise ConfigurationError(
                f"array solver disagrees with heap at N={num_items}: "
                f"{None if array is None else array.options} != {heap.options}"
            )
        t_heap = _best_of(
            repeats, lambda: combined_greedy(problem, strategy="heap")
        )
        t_array = _best_of(
            repeats,
            lambda: solve_arrays(values, weights, problem.budget, caps=caps),
        )
        results.append(
            {
                "num_items": int(num_items),
                "num_options": int(num_options),
                "reference_s": t_ref,
                "heap_s": t_heap,
                "array_s": t_array,
                "reference_solves_per_s": (
                    1.0 / t_ref if t_ref is not None else None
                ),
                "heap_solves_per_s": 1.0 / t_heap,
                "array_solves_per_s": 1.0 / t_array,
                "speedup": t_ref / t_heap if t_ref is not None else None,
                "array_speedup": t_heap / t_array,
                "solutions_identical": True,
            }
        )
    return {"kind": "allocator", "repeats": int(repeats), "sizes": results}


# ---------------------------------------------------------------- simulator


def bench_simulator(
    num_users: int = 5,
    num_slots: int = 600,
    num_episodes: int = 4,
    max_workers: int = 4,
    seed: int = 0,
) -> Dict:
    """Time episode replay and the parallel episode fan-out.

    Reports slots/s for a cold simulator (first episode pays schedule
    generation and prediction precompute) and a warm one, then the
    serial vs ``max_workers`` wall-clock over ``num_episodes``
    episodes.  When a pool cannot pay for itself — single episode,
    single-core box (see
    :func:`~repro.simulation.workers.parallel_decision`) — the run
    records ``parallel_fallback: true`` with the reason instead of a
    meaningless sub-1.0 speedup; the ``max_workers`` arm is still
    replayed (it takes the serial path internally) and must match.
    ``workers`` records the pool size the run used, which the core
    count may hold below ``max_workers``.
    """
    config = SimulationConfig(
        num_users=num_users, duration_slots=num_slots, seed=seed
    )
    allocator = DensityValueGreedyAllocator()

    sim = TraceSimulator(config)
    start = time.perf_counter()
    sim.run_episode(allocator, 0)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    sim.run_episode(allocator, 0)
    warm_s = time.perf_counter() - start

    serial_sim = TraceSimulator(config)
    start = time.perf_counter()
    serial = serial_sim.run(allocator, num_episodes=num_episodes)
    serial_s = time.perf_counter() - start

    decision = workers.parallel_decision(num_episodes, max_workers)
    parallel_sim = TraceSimulator(config)
    start = time.perf_counter()
    parallel = parallel_sim.run(
        allocator, num_episodes=num_episodes, max_workers=max_workers
    )
    parallel_s = time.perf_counter() - start

    identical = [
        (a.episode, [u.qoe for u in a.users])
        for a in serial.episodes
    ] == [
        (b.episode, [u.qoe for u in b.users])
        for b in parallel.episodes
    ]
    if not identical:
        raise ConfigurationError("parallel episodes diverged from serial")

    return {
        "kind": "simulator",
        "num_users": int(num_users),
        "num_slots": int(num_slots),
        "num_episodes": int(num_episodes),
        "max_workers": int(max_workers),
        "workers": decision.workers,
        "cold_slots_per_s": num_slots / cold_s,
        "warm_slots_per_s": num_slots / warm_s,
        "serial_s": serial_s,
        "parallel_s": parallel_s if decision.use_parallel else None,
        "parallel_speedup": (
            serial_s / parallel_s if decision.use_parallel else None
        ),
        "parallel_fallback": not decision.use_parallel,
        "parallel_reason": decision.reason,
        "parallel_matches_serial": True,
    }


# ------------------------------------------------------------------- kernel


def _slot_inputs(
    rng: np.random.Generator, num_users: int, num_levels: int
) -> Dict[str, np.ndarray]:
    """One slot's seeded raw inputs, shared by both arms."""
    base = rng.uniform(0.5, 3.0, size=num_users)
    sizes = base[:, None] * 1.5 ** np.arange(num_levels, dtype=np.int64)[None, :]
    base_total = float(np.sum(sizes[:, 0]))
    top_total = float(np.sum(sizes[:, -1]))
    return {
        "sizes": sizes,
        "caps": rng.uniform(20.0, 100.0, size=num_users),
        "delta": rng.uniform(0.6, 1.0, size=num_users),
        "qbar": rng.uniform(0.0, float(num_levels), size=num_users),
        "budget": np.array(base_total + 0.4 * (top_total - base_total), dtype=float),
    }


def _object_slot(
    inputs: Dict[str, np.ndarray],
    t: int,
    weights: QoEWeights,
    model: MM1DelayModel,
) -> List[int]:
    """The per-user scalar pipeline, end to end, for one slot.

    Each user's M/M/1 delay row and eq. (9) curve are evaluated one
    level at a time into its own :class:`ItemCurve`, and the knapsack
    is solved by the heap greedy itself: the allocators would take the
    sorted sweep at this fleet size, and this arm is its baseline.
    """
    sizes = inputs["sizes"]
    caps = inputs["caps"]
    items = []
    for n in range(sizes.shape[0]):
        row = tuple(sizes[n])
        values = slot_objective_curve(
            t,
            float(inputs["qbar"][n]),
            float(inputs["delta"][n]),
            weights.alpha,
            weights.beta,
            model.delays(row, float(caps[n])),
        )
        items.append(ItemCurve.from_sequences(values, row, cap=float(caps[n])))
    knapsack = SeparableKnapsack(items, float(inputs["budget"]))
    solution = combined_greedy(knapsack, strategy="heap")
    return [k + 1 for k in solution.options]


def _slot_problem(
    inputs: Dict[str, np.ndarray], t: int, weights: QoEWeights
) -> SlotProblem:
    """The slot as a :class:`SlotProblem` (delay matrix built here)."""
    sizes = inputs["sizes"]
    return SlotProblem(
        t=t,
        sizes=sizes,
        delays=mm1_delay_matrix(sizes, inputs["caps"]),
        delta=inputs["delta"],
        qbar=inputs["qbar"],
        caps_mbps=inputs["caps"],
        raw_caps_mbps=inputs["caps"],
        budget_mbps=float(inputs["budget"]),
        weights=weights,
    )


def _array_slot(
    inputs: Dict[str, np.ndarray], t: int, weights: QoEWeights
) -> np.ndarray:
    """The array-kernel pipeline (matrix construction included)."""
    levels = solve_batch(_slot_problem(inputs, t, weights))
    if levels is None:
        raise ConfigurationError("array kernel refused a benchmark slot")
    return levels


def _bench_predictor(
    rng: np.random.Generator, num_users: int, window: int, repeats: int
) -> Dict[str, object]:
    """Batched vs per-user linear-regression fits on one population."""
    steps = window + 2
    walks = np.cumsum(rng.normal(0.0, 2.0, size=(steps, num_users, 6)), axis=0)
    walks[:, :, 4] = np.clip(walks[:, :, 4], -90.0, 90.0)
    batch = BatchMotionPredictor(num_users, window=window)
    scalars = [LinearMotionPredictor(window=window) for _ in range(num_users)]
    for step in range(steps):
        # Both arms must see what the pipeline feeds them: pose
        # vectors whose angles have been wrapped by the Pose type
        # (the wrap is not a bit-exact identity on raw walk floats).
        poses = [Pose(*walks[step, n]) for n in range(num_users)]
        batch.observe(np.array([p.as_vector() for p in poses], dtype=float))
        for n in range(num_users):
            scalars[n].observe(poses[n])

    def scalar_pass() -> List[Pose]:
        return [p.predict() for p in scalars]

    batch_s = _best_of(repeats, batch.predict)
    scalar_s = _best_of(repeats, scalar_pass)
    got = batch.predict()
    want = np.array([p.as_vector() for p in scalar_pass()], dtype=float)
    return {
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / batch_s,
        "identical": bool(np.array_equal(got, want)),
    }


def _bench_coverage(
    rng: np.random.Generator, num_users: int, repeats: int
) -> Dict[str, object]:
    """``indicators`` vs per-user ``evaluate`` on one population."""
    world = GridWorld()
    evaluator = CoverageEvaluator(world, TileGrid(), FieldOfView())
    pyaw = rng.uniform(-180.0, 180.0, size=num_users)
    ppitch = rng.uniform(-90.0, 90.0, size=num_users)
    ayaw = pyaw + rng.normal(0.0, 10.0, size=num_users)
    ayaw = (ayaw + 180.0) % 360.0 - 180.0
    apitch = np.clip(ppitch + rng.normal(0.0, 5.0, size=num_users), -90.0, 90.0)
    pcell = rng.integers(0, world.rows * world.cols, size=num_users)
    offset = rng.integers(-1, 2, size=num_users)
    acell = np.clip(pcell + offset, 0, world.rows * world.cols - 1)

    def scalar_pass() -> List[int]:
        return [
            evaluator.evaluate(
                Pose(0.0, 0.0, 0.0, float(pyaw[n]), float(ppitch[n]), 0.0),
                Pose(0.0, 0.0, 0.0, float(ayaw[n]), float(apitch[n]), 0.0),
                predicted_cell=int(pcell[n]),
                actual_cell=int(acell[n]),
            ).indicator
            for n in range(num_users)
        ]

    def batch_pass() -> np.ndarray:
        return evaluator.indicators(pyaw, ppitch, ayaw, apitch, pcell, acell)

    batch_s = _best_of(repeats, batch_pass)
    scalar_s = _best_of(repeats, scalar_pass)
    identical = bool(np.array_equal(batch_pass(), np.array(scalar_pass(), dtype=np.int64)))
    return {
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / batch_s,
        "identical": identical,
    }


def bench_kernel(
    num_users: int = 10_000,
    num_levels: int = 6,
    num_slots: int = 3,
    repeats: int = 2,
    predictor_window: int = 10,
    seed: int = 0,
) -> Dict:
    """Object vs array pipeline over seeded slots; JSON-ready dict.

    The object arm evaluates each user's M/M/1 delay row and eq. (9)
    curve one level at a time into its own :class:`ItemCurve`, and
    solves the knapsack with the heap greedy (:func:`combined_greedy`);
    the array arm builds a :class:`SlotProblem` (delay matrix included)
    and solves it with :func:`solve_batch`.  ``num_slots``
    distinct seeded populations are each timed ``repeats`` times per
    arm (best-of); levels must agree on every slot or the benchmark
    raises instead of reporting a speedup for a wrong answer.
    """
    if num_users < 1 or num_levels < 1:
        raise ConfigurationError("num_users and num_levels must be >= 1")
    if num_slots < 1 or repeats < 1:
        raise ConfigurationError("num_slots and repeats must be >= 1")
    rng = np.random.default_rng(seed)
    weights = QoEWeights.simulation_defaults()
    model = MM1DelayModel()

    object_s = 0.0
    array_s = 0.0
    identical = True
    batch_nbytes = 0
    slots: List[Tuple[int, Dict[str, np.ndarray]]] = [
        (t + 1, _slot_inputs(rng, num_users, num_levels))
        for t in range(num_slots)
    ]
    for t, inputs in slots:
        want = _object_slot(inputs, t, weights, model)
        got = _array_slot(inputs, t, weights)
        if list(got) != list(want):
            identical = False
        object_s += _best_of(
            repeats,
            lambda: _object_slot(inputs, t, weights, model),
        )
        array_s += _best_of(
            repeats, lambda: _array_slot(inputs, t, weights)
        )
        batch_nbytes = _slot_problem(inputs, t, weights).nbytes()
    if not identical:
        raise ConfigurationError(
            "array kernel diverged from the object pipeline"
        )

    return {
        "kind": "kernel",
        "num_users": int(num_users),
        "num_levels": int(num_levels),
        "num_slots": int(num_slots),
        "repeats": int(repeats),
        "object_s_per_slot": object_s / num_slots,
        "array_s_per_slot": array_s / num_slots,
        "object_slots_per_s": num_slots / object_s,
        "array_slots_per_s": num_slots / array_s,
        "speedup": object_s / array_s,
        "solutions_identical": True,
        "batch_nbytes": int(batch_nbytes),
        "predictor": _bench_predictor(rng, num_users, predictor_window, repeats),
        "coverage": _bench_coverage(rng, num_users, repeats),
    }


# ------------------------------------------------------ serve, obs, scale


def _serve_config(
    users: int, slots: int, seed: int, lockstep: bool = False
) -> ServeConfig:
    """A bench server: ``slots`` transmission slots, exact quantiles.

    A bench run is short, so retaining every stage-latency sample is
    affordable and keeps the reported p50/p99 bucket-free.
    """
    return replace(
        serve_setup1(
            max_users=users,
            duration_slots=slots + 1,
            seed=seed,
            expect_clients=users,
            lockstep=lockstep,
        ),
        exact_stage_latency=True,
    )


def _fleet_row(
    config: ServeConfig, connections: int
) -> Tuple[Dict[str, float], FleetReport]:
    """Serve a full house over ``connections`` sockets in-process.

    Returns the run's slot-latency summary and counters, plus the
    fleet's own report.
    """
    fleet_config = LoadGenConfig(
        num_clients=config.expect_clients, seed=config.experiment.seed
    )
    result, fleet = asyncio.run(
        run_serve_and_mux_fleet(config, fleet_config, connections)
    )
    metrics = result.metrics
    slot_hist = metrics.stage_latency["slot"]
    row = {
        "slots": float(metrics.slots),
        "deadline_hit_rate": metrics.deadline_hit_rate,
        "mean_slot_ms": slot_hist.mean() * 1e3,
        "p50_slot_ms": slot_hist.quantile(0.50) * 1e3,
        "p99_slot_ms": slot_hist.quantile(0.99) * 1e3,
        "max_slot_ms": slot_hist.max() * 1e3,
        "degraded_user_slots": float(metrics.degraded_user_slots),
        "missed_reports": float(metrics.missed_reports),
        "completed": float(
            sum(1 for c in fleet.clients if c.end_reason == "complete")
        ),
    }
    return row, fleet


def _check_target(deadline_target: float) -> None:
    if not 0 < deadline_target <= 1:
        raise ConfigurationError(
            f"deadline_target must be in (0, 1], got {deadline_target}"
        )


def bench_serve(
    user_counts: Sequence[int] = (2, 4, 8),
    slots: int = 120,
    seed: int = 0,
    deadline_target: float = 0.99,
    mux_clients: int = 128,
    mux_connections: int = 4,
) -> Dict[str, object]:
    """Measure slot-deadline behaviour across fleet sizes.

    Each fleet size gets one paced loopback run of ``slots``
    transmission slots with all clients local, one socket each, and
    zero think-time; ``users_sustained`` is the largest size whose
    deadline hit rate meets ``deadline_target`` with nobody rejected.

    The ``protocol`` section holds one run packing ``mux_clients``
    clients onto ``mux_connections`` shared sockets
    (``mux_clients`` of 0 leaves it empty).
    """
    if slots < 3:
        raise ConfigurationError(f"slots must be >= 3, got {slots}")
    if not user_counts:
        raise ConfigurationError("need at least one fleet size")
    _check_target(deadline_target)
    if mux_clients < 0:
        raise ConfigurationError(
            f"mux_clients must be >= 0, got {mux_clients}"
        )
    if mux_connections < 1:
        raise ConfigurationError(
            f"mux_connections must be >= 1, got {mux_connections}"
        )
    results: List[Dict[str, float]] = []
    users_sustained = 0
    for num_users in sorted(set(int(n) for n in user_counts)):
        if num_users < 1:
            raise ConfigurationError(f"fleet sizes must be >= 1, got {num_users}")
        row, fleet = _fleet_row(_serve_config(num_users, slots, seed), num_users)
        if row["deadline_hit_rate"] >= deadline_target and not fleet.rejected:
            users_sustained = max(users_sustained, num_users)
        results.append({"users": float(num_users), **row})
    protocol: Dict[str, object] = {}
    if mux_clients > 0:
        row, _ = _fleet_row(
            _serve_config(mux_clients, slots, seed), mux_connections
        )
        protocol["mux"] = {
            "clients": float(mux_clients),
            "connections": float(mux_connections),
            **row,
        }
    return {
        "kind": "serve",
        "slots": int(slots),
        "deadline_target": float(deadline_target),
        "users_sustained": int(users_sustained),
        "fleets": results,
        "protocol": protocol,
    }


def bench_obs(
    users: int = 8,
    slots: int = 120,
    seed: int = 0,
    repeats: int = 3,
    sample_every: int = DEFAULT_SAMPLE_EVERY,
) -> Dict[str, object]:
    """Measure the slot-pipeline cost of full observability.

    Instrumentation that perturbs the system it measures is worse than
    none, so at the default trace sampling full observability must add
    less than :data:`MAX_OVERHEAD_PCT` to the slot pipeline.  Each arm
    (obs off, obs on at ``sample_every``) runs ``repeats`` seeded
    lockstep loopback serves; the arms are compared on their best
    (minimum) *mean* slot latency, which is exact, unlike bucketed
    quantiles.
    """
    if users < 1:
        raise ConfigurationError(f"users must be >= 1, got {users}")
    if slots < 3:
        raise ConfigurationError(f"slots must be >= 3, got {slots}")
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    config = _serve_config(users, slots, seed, lockstep=True)
    arms = {
        "off": ObsConfig(enabled=False),
        "on": ObsConfig(enabled=True, sample_every=sample_every),
    }
    runs: Dict[str, List[Dict[str, float]]] = {"off": [], "on": []}
    for _ in range(repeats):
        for arm, obs_config in arms.items():
            row, _ = _fleet_row(replace(config, obs=obs_config), users)
            runs[arm].append(row)
    best = {
        arm: min(arm_runs, key=lambda run: run["mean_slot_ms"])
        for arm, arm_runs in runs.items()
    }
    off, on = best["off"], best["on"]
    overhead_pct = (
        (on["mean_slot_ms"] - off["mean_slot_ms"]) / off["mean_slot_ms"] * 100.0
        if off["mean_slot_ms"] > 0
        else 0.0
    )
    return {
        "kind": "obs",
        "users": int(users),
        "slots": int(slots),
        "repeats": int(repeats),
        "sample_every": int(sample_every),
        "off_mean_slot_ms": off["mean_slot_ms"],
        "on_mean_slot_ms": on["mean_slot_ms"],
        "off_p50_slot_ms": off["p50_slot_ms"],
        "on_p50_slot_ms": on["p50_slot_ms"],
        "off_p99_slot_ms": off["p99_slot_ms"],
        "on_p99_slot_ms": on["p99_slot_ms"],
        "overhead_pct": overhead_pct,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "within_budget": bool(overhead_pct < MAX_OVERHEAD_PCT),
    }


def bench_scale(
    shard_counts: Sequence[int] = (1, 2),
    users_per_shard: int = 2,
    slots: int = 80,
    seed: int = 0,
    deadline_target: float = 0.99,
) -> Dict[str, object]:
    """Measure cluster deadline behaviour across shard counts.

    Each shard count gets one paced loopback run of ``slots``
    transmission slots per shard with a full house —
    ``shards * users_per_shard`` clients behind the coordinator's
    front door, so join-time rebalancing fills every shard — and zero
    think-time.  ``users_sustained`` is the largest fleet whose
    cluster-wide deadline hit rate meets ``deadline_target`` with
    nobody rejected.
    """
    if slots < 3:
        raise ConfigurationError(f"slots must be >= 3, got {slots}")
    if users_per_shard < 1:
        raise ConfigurationError(
            f"users_per_shard must be >= 1, got {users_per_shard}"
        )
    if not shard_counts:
        raise ConfigurationError("need at least one shard count")
    _check_target(deadline_target)
    base = _serve_config(users_per_shard, slots, seed)
    results: List[Dict[str, float]] = []
    users_sustained = 0
    for num_shards in sorted(set(int(n) for n in shard_counts)):
        if num_shards < 1:
            raise ConfigurationError(
                f"shard counts must be >= 1, got {num_shards}"
            )
        total_users = num_shards * users_per_shard
        cluster = ShardClusterConfig(
            base=base, num_shards=num_shards, expect_clients=total_users
        )
        fleet_config = LoadGenConfig(num_clients=total_users, seed=seed)
        result, fleet = asyncio.run(
            run_cluster_and_fleet(cluster, fleet_config)
        )
        hit_rate = result.deadline_hit_rate
        if hit_rate >= deadline_target and not fleet.rejected:
            users_sustained = max(users_sustained, total_users)
        results.append(
            {
                "shards": float(num_shards),
                "users": float(total_users),
                "slots": float(result.total_slots),
                "deadline_hit_rate": hit_rate,
                "missed_reports": float(result.missed_reports),
                "migrations": float(result.migrations),
                "redirects": float(sum(c.redirects for c in fleet.clients)),
            }
        )
    return {
        "kind": "scale",
        "slots": int(slots),
        "users_per_shard": int(users_per_shard),
        "deadline_target": float(deadline_target),
        "users_sustained": int(users_sustained),
        "clusters": results,
    }


# -------------------------------------------------------------- the table

Table = Tuple[Sequence[str], List[List[object]]]


def _dash(value: object) -> object:
    return "-" if value is None else value


def _allocator_table(run: Mapping[str, Any]) -> Table:
    return (
        ["N", "reference (s)", "heap (s)", "array (s)",
         "heap speedup", "array speedup"],
        [
            [r["num_items"], _dash(r["reference_s"]), r["heap_s"],
             r["array_s"], _dash(r["speedup"]), r["array_speedup"]]
            for r in run["sizes"]
        ],
    )


def _simulator_table(run: Mapping[str, Any]) -> Table:
    rows: List[List[object]] = [
        ["cold slots/s", run["cold_slots_per_s"]],
        ["warm slots/s", run["warm_slots_per_s"]],
        ["serial (s)", run["serial_s"]],
        [f"parallel x{run['workers']} (s)", _dash(run["parallel_s"])],
        ["parallel speedup", _dash(run["parallel_speedup"])],
    ]
    if run["parallel_fallback"]:
        rows.append(["serial fallback", run["parallel_reason"]])
    return ["metric", "value"], rows


def _kernel_table(run: Mapping[str, Any]) -> Table:
    return ["metric", "value"], [
        ["object slots/s", run["object_slots_per_s"]],
        ["array slots/s", run["array_slots_per_s"]],
        ["allocate speedup", run["speedup"]],
        ["solutions identical", float(run["solutions_identical"])],
        ["batch bytes", run["batch_nbytes"]],
        ["predictor speedup", run["predictor"]["speedup"]],
        ["coverage speedup", run["coverage"]["speedup"]],
    ]


def _serve_table(run: Mapping[str, Any]) -> Table:
    rows = [(f"{int(r['users'])}", r) for r in run["fleets"]]
    mux = run["protocol"].get("mux")
    if mux is not None:
        label = f"{int(mux['clients'])} on {int(mux['connections'])} sockets"
        rows.append((label, mux))
    return (
        ["users", "hit rate", "p50 slot (ms)", "p99 slot (ms)", "missed"],
        [
            [label, r["deadline_hit_rate"], r["p50_slot_ms"],
             r["p99_slot_ms"], int(r["missed_reports"])]
            for label, r in rows
        ],
    )


def _obs_table(run: Mapping[str, Any]) -> Table:
    return ["metric", "value"], [
        ["obs off mean slot (ms)", run["off_mean_slot_ms"]],
        ["obs on mean slot (ms)", run["on_mean_slot_ms"]],
        ["overhead (%)", run["overhead_pct"]],
        ["within budget", float(run["within_budget"])],
    ]


def _scale_table(run: Mapping[str, Any]) -> Table:
    return (
        ["shards", "users", "hit rate", "missed", "migrations"],
        [
            [int(r["shards"]), int(r["users"]), r["deadline_hit_rate"],
             int(r["missed_reports"]), int(r["migrations"])]
            for r in run["clusters"]
        ],
    )


@dataclass(frozen=True)
class BenchKind:
    """One ``repro bench`` kind.

    ``full`` reproduces the committed ``BENCH_*.json`` baseline and
    ``quick`` is the CI smoke scale; both are fixed, because the
    gate's scale guards (``scale_keys``, ``same_rows``) compare runs
    only when their populations match.
    """

    run: Callable[..., Dict[str, Any]]
    file: str
    full: Mapping[str, object]
    quick: Mapping[str, object]
    table: Callable[[Mapping[str, Any]], Table]

    def params(self, quick: bool) -> Mapping[str, object]:
        return self.quick if quick else self.full


#: Every bench kind, in run order.
BENCH_KINDS: Mapping[str, BenchKind] = {
    "allocator": BenchKind(
        bench_allocator,
        "BENCH_allocator.json",
        full={"sizes": (5, 30, 100, 1000, 10000), "repeats": 3},
        quick={"sizes": (5, 30, 100), "repeats": 1},
        table=_allocator_table,
    ),
    "simulator": BenchKind(
        bench_simulator,
        "BENCH_simulator.json",
        full={"num_users": 5, "num_slots": 600, "num_episodes": 4,
              "max_workers": 4},
        quick={"num_users": 5, "num_slots": 120, "num_episodes": 2,
               "max_workers": 2},
        table=_simulator_table,
    ),
    "kernel": BenchKind(
        bench_kernel,
        "BENCH_kernel.json",
        full={"num_users": 10_000, "num_levels": 6, "num_slots": 3,
              "repeats": 3},
        quick={"num_users": 500, "num_levels": 6, "num_slots": 2,
               "repeats": 1},
        table=_kernel_table,
    ),
    "serve": BenchKind(
        bench_serve,
        "BENCH_serve.json",
        full={"user_counts": (2, 4, 8), "slots": 120,
              "deadline_target": 0.99, "mux_clients": 128,
              "mux_connections": 4},
        quick={"user_counts": (2,), "slots": 40, "deadline_target": 0.99,
               "mux_clients": 16, "mux_connections": 2},
        table=_serve_table,
    ),
    "obs": BenchKind(
        bench_obs,
        "BENCH_obs.json",
        full={"users": 8, "slots": 120, "repeats": 3},
        quick={"users": 2, "slots": 40, "repeats": 1},
        table=_obs_table,
    ),
    "scale": BenchKind(
        bench_scale,
        "BENCH_scale.json",
        full={"shard_counts": (1, 2, 4), "users_per_shard": 2, "slots": 80,
              "deadline_target": 0.99},
        quick={"shard_counts": (1, 2), "users_per_shard": 2, "slots": 30,
               "deadline_target": 0.99},
        table=_scale_table,
    ),
}


def persist_run(
    payload: Dict, path: Union[str, Path], now: Optional[float] = None
) -> Dict:
    """Append a benchmark run to a bounded JSON history file.

    The file holds ``{"latest": <run>, "runs": [<run>, ...]}`` with
    the newest run last; corrupt or foreign files are replaced rather
    than crashed on.  Returns the document written.
    """
    path = Path(path)
    run = dict(payload)
    run["timestamp"] = time.time() if now is None else now
    run["python"] = platform.python_version()
    run["cpu_count"] = os.cpu_count()
    runs: List[Dict] = []
    if path.exists():
        try:
            document = json.loads(path.read_text())
        except (ValueError, OSError):
            document = None
        previous = (
            document.get("runs") if isinstance(document, dict) else None
        )
        if isinstance(previous, list):
            runs = [r for r in previous if isinstance(r, dict)]
    runs.append(run)
    runs = runs[-HISTORY_LIMIT:]
    document = {"latest": run, "runs": runs}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document

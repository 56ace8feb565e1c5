"""The persistent worker pool and its go/no-go decision logic."""

import numpy as np
import pytest

from repro.simulation import workers
from repro.simulation.workers import ParallelDecision, parallel_decision


class TestParallelDecision:
    @pytest.mark.parametrize("max_workers", [None, 0, 1])
    def test_serial_when_not_requested(self, max_workers):
        decision = parallel_decision(10, max_workers)
        assert decision == ParallelDecision(
            False, "serial replay requested (max_workers <= 1)"
        )

    def test_serial_for_a_single_episode(self):
        decision = parallel_decision(1, 4)
        assert not decision.use_parallel
        assert "single episode" in decision.reason

    def test_serial_on_a_single_core_box(self, monkeypatch):
        monkeypatch.setattr(workers.os, "cpu_count", lambda: 1)
        decision = parallel_decision(10, 4)
        assert not decision.use_parallel
        assert "1 CPU core" in decision.reason

    def test_parallel_on_a_multi_core_box(self, monkeypatch):
        monkeypatch.setattr(workers.os, "cpu_count", lambda: 8)
        decision = parallel_decision(10, 4)
        assert decision.use_parallel
        assert "4 workers over 10 episodes on 8 cores" == decision.reason

    def test_workers_capped_by_episodes(self, monkeypatch):
        monkeypatch.setattr(workers.os, "cpu_count", lambda: 8)
        decision = parallel_decision(2, 16)
        assert decision.use_parallel
        assert decision.reason.startswith("2 workers")


class TestChunks:
    def test_even_split(self):
        assert workers._chunks([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_remainder_spread_over_leading_chunks(self):
        assert workers._chunks([1, 2, 3, 4, 5], 3) == [[1, 2], [3, 4], [5]]

    def test_more_chunks_than_episodes(self):
        assert workers._chunks([1, 2], 4) == [[1], [2]]

    def test_order_preserved_when_flattened(self):
        episodes = list(range(17))
        chunks = workers._chunks(episodes, 5)
        assert [e for chunk in chunks for e in chunk] == episodes


class TestPoolLifecycle:
    def test_pool_reused_until_size_changes(self):
        workers.shutdown_pool()
        try:
            first = workers.get_pool(2)
            assert workers.get_pool(2) is first
            resized = workers.get_pool(3)
            assert resized is not first
            assert workers.get_pool(3) is resized
        finally:
            workers.shutdown_pool()
        assert workers._POOL is None

    def test_run_episodes_refuses_unpicklable_payloads(self):
        class Unpicklable:
            def __reduce__(self):
                raise TypeError("nope")

        result = workers.run_episodes(Unpicklable(), object(), [0, 1], 2)
        assert result is None
        assert workers._POOL is None  # pre-flight failed before pool spawn


def test_run_episodes_matches_serial_results():
    # End-to-end through real worker processes: the parallel path must
    # return the serial path's results in episode order.  (On a
    # single-core box TraceSimulator.run never takes this route, but
    # the pool itself still works — exercise it directly.)
    import dataclasses

    from repro.core.allocation import DensityValueGreedyAllocator
    from repro.simulation.simulator import SimulationConfig, TraceSimulator

    config = SimulationConfig(num_users=2, duration_slots=20)
    simulator = TraceSimulator(config)
    allocator = DensityValueGreedyAllocator()
    episodes = [0, 1, 2]
    serial = [simulator.run_episode(allocator, e) for e in episodes]
    try:
        parallel = workers.run_episodes(config, allocator, episodes, 2)
    finally:
        workers.shutdown_pool()
    assert parallel is not None
    assert [r.episode for r in parallel] == episodes
    for got, want in zip(parallel, serial):
        assert [dataclasses.asdict(u) for u in got.users] == [
            dataclasses.asdict(u) for u in want.users
        ]


def test_curve_cache_is_bounded(monkeypatch):
    from repro.simulation import simulator as simulator_module
    from repro.simulation.simulator import SimulationConfig, TraceSimulator

    sim = TraceSimulator(SimulationConfig(num_users=1, duration_slots=2))
    monkeypatch.setattr(simulator_module, "_CURVE_CACHE_LIMIT", 8)
    for cell in range(32):
        sim._curve(cell)
    assert len(sim._curve_cache) <= 8


def test_tile_cache_is_bounded(monkeypatch):
    from repro.content.projection import FieldOfView
    from repro.content.tiles import GridWorld, TileGrid
    from repro.prediction import fov as fov_module
    from repro.prediction.fov import CoverageEvaluator

    evaluator = CoverageEvaluator(
        world=GridWorld(),
        grid=TileGrid(rows=2, cols=2),
        fov=FieldOfView(horizontal_deg=90.0, vertical_deg=90.0),
    )
    from repro.prediction.pose import Pose

    monkeypatch.setattr(fov_module, "_TILE_CACHE_LIMIT", 4)
    rng = np.random.default_rng(0)
    for _ in range(64):
        pose = Pose(
            0, 0, 0, float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)), 0
        )
        evaluator.evaluate(pose, pose)
    assert 0 < len(evaluator._needed.entries) <= 4
    evaluator.tiles_to_deliver(
        rng.uniform(-180, 180, size=64), rng.uniform(-90, 90, size=64)
    )
    assert 0 < len(evaluator._deliver.entries) <= 4

"""Tests for the trace dataset and slot schedule."""

import numpy as np
import pytest

from repro.content.tiles import GridWorld
from repro.errors import ConfigurationError
from repro.prediction.pose import Pose
from repro.traces.dataset import SlotSchedule, TraceDataset
from repro.traces.network import TraceCatalog


@pytest.fixture
def dataset():
    world = GridWorld(0.0, 8.0, 0.0, 8.0, cell_size=0.05)
    return TraceDataset(world, catalog=TraceCatalog(seed=0, duration_s=30.0), seed=0)


class TestSlotSchedule:
    def test_shape_validation(self):
        bandwidth = np.ones((2, 10))
        poses = [[Pose(0, 0, 0, 0, 0)] * 10 for _ in range(2)]
        schedule = SlotSchedule(bandwidth, poses, slot_s=1 / 60)
        assert schedule.num_users == 2
        assert schedule.num_slots == 10

    def test_rejects_mismatched_users(self):
        with pytest.raises(ConfigurationError):
            SlotSchedule(np.ones((2, 10)), [[Pose(0, 0, 0, 0, 0)] * 10], 1 / 60)

    def test_rejects_mismatched_slots(self):
        with pytest.raises(ConfigurationError):
            SlotSchedule(
                np.ones((1, 10)), [[Pose(0, 0, 0, 0, 0)] * 5], 1 / 60
            )

    def test_rejects_1d_bandwidth(self):
        with pytest.raises(ConfigurationError):
            SlotSchedule(np.ones(10), [[Pose(0, 0, 0, 0, 0)] * 10], 1 / 60)


class TestTraceDataset:
    def test_episode_shapes(self, dataset):
        schedule = dataset.episode(num_users=3, num_slots=200)
        assert schedule.num_users == 3
        assert schedule.num_slots == 200
        assert len(schedule.poses[0]) == 200

    def test_bandwidth_in_clamp_range(self, dataset):
        schedule = dataset.episode(3, 500)
        assert schedule.bandwidth_mbps.min() >= 20.0 - 1e-9
        assert schedule.bandwidth_mbps.max() <= 100.0 + 1e-9

    def test_short_traces_are_tiled(self, dataset):
        # 30 s catalog at 60 fps = 1800 slots; asking for more tiles.
        schedule = dataset.episode(1, 2000)
        assert schedule.num_slots == 2000

    def test_deterministic_per_episode(self, dataset):
        world = GridWorld(0.0, 8.0, 0.0, 8.0, cell_size=0.05)
        other = TraceDataset(
            world, catalog=TraceCatalog(seed=0, duration_s=30.0), seed=0
        )
        a = dataset.episode(2, 100)
        b = other.episode(2, 100)
        assert np.allclose(a.bandwidth_mbps, b.bandwidth_mbps)
        assert a.poses[1][50] == b.poses[1][50]

    def test_episodes_differ(self, dataset):
        a = dataset.episode(2, 100, episode=0)
        b = dataset.episode(2, 100, episode=1)
        assert a.poses[0][50] != b.poses[0][50]

    def test_validation(self, dataset):
        with pytest.raises(ConfigurationError):
            dataset.episode(0, 10)
        with pytest.raises(ConfigurationError):
            dataset.episode(1, 0)

"""Tests for the synthetic 6-DoF motion trace generator."""

import numpy as np
import pytest

from repro.content.tiles import GridWorld
from repro.errors import ConfigurationError
from repro.traces.motion import MotionConfig, MotionTraceGenerator


@pytest.fixture
def world():
    return GridWorld(0.0, 8.0, 0.0, 8.0, cell_size=0.05)


@pytest.fixture
def generator(world):
    return MotionTraceGenerator(world)


class TestMotionTraceGenerator:
    def test_length(self, generator, rng):
        poses = generator.generate(500, rng)
        assert len(poses) == 500

    def test_positions_inside_world(self, generator, rng, world):
        for pose in generator.generate(2000, rng):
            assert world.x_min <= pose.x <= world.x_max
            assert world.y_min <= pose.y <= world.y_max

    def test_speed_bounded(self, generator, rng):
        cfg = generator.config
        poses = generator.generate(2000, rng)
        max_step = cfg.walk_speed_mps * np.exp(3 * cfg.speed_jitter) * generator.slot_s
        for a, b in zip(poses, poses[1:]):
            assert a.translation_distance(b) <= max_step + 1e-9

    def test_pitch_within_limits(self, generator, rng):
        limit = generator.config.pitch_limit_deg
        for pose in generator.generate(2000, rng):
            assert -limit <= pose.pitch <= limit

    def test_eye_height_constant(self, generator, rng):
        poses = generator.generate(100, rng)
        assert all(p.z == generator.config.eye_height_m for p in poses)

    def test_deterministic_given_seed(self, generator):
        a = generator.generate(300, np.random.default_rng(9))
        b = generator.generate(300, np.random.default_rng(9))
        assert all(pa == pb for pa, pb in zip(a, b))

    def test_head_actually_moves(self, generator, rng):
        poses = generator.generate(2000, rng)
        yaws = {round(p.yaw, 1) for p in poses}
        assert len(yaws) > 50

    def test_user_actually_walks(self, generator, rng):
        poses = generator.generate(3000, rng)
        assert poses[0].translation_distance(poses[-1]) > 0.1 or max(
            poses[0].translation_distance(p) for p in poses
        ) > 0.5

    def test_validation(self, world, generator, rng):
        with pytest.raises(ConfigurationError):
            MotionTraceGenerator(world, slot_s=0.0)
        with pytest.raises(ConfigurationError):
            generator.generate(0, rng)
        with pytest.raises(ConfigurationError):
            generator.tape(0, rng)
        with pytest.raises(ConfigurationError):
            MotionTraceGenerator(GridWorld(0.0, 8.0, 0.0, 0.15, cell_size=0.05))
        with pytest.raises(ConfigurationError):
            MotionConfig(walk_speed_mps=0.0)
        with pytest.raises(ConfigurationError):
            MotionConfig(pause_probability=2.0)
        with pytest.raises(ConfigurationError):
            MotionConfig(saccade_probability=-0.1)
        # Each of these used to be accepted and then fail at some slot
        # of the walk; stepped on demand, that slot may be deep inside
        # a serving run.
        for overrides in (
            {"pause_slots_max": 10},
            {"speed_jitter": -0.1},
            {"yaw_noise_deg": -0.5},
            {"pitch_noise_deg": -0.5},
            {"pitch_limit_deg": 120.0},
            {"pitch_limit_deg": 0.0},
            {"pitch_mean_deg": -70.0},
            {"pitch_limit_deg": 4.0},
            {"saccade_max_deg": -1.0},
        ):
            with pytest.raises(ConfigurationError):
                MotionConfig(**overrides)

    def test_validation_accepts_boundary_configs(self, world):
        config = MotionConfig(
            pause_slots_max=11, speed_jitter=0.0, pitch_limit_deg=90.0
        )
        poses = MotionTraceGenerator(world, config).generate(
            500, np.random.default_rng(0)
        )
        assert len(poses) == 500


class TestMotionPresets:
    def test_walking_is_default(self):
        assert MotionConfig.walking() == MotionConfig()

    def test_seated_moves_less(self, world):
        import numpy as np

        def travel(config, seed=5):
            generator = MotionTraceGenerator(world, config)
            poses = generator.generate(1200, np.random.default_rng(seed))
            return sum(a.translation_distance(b) for a, b in zip(poses, poses[1:]))

        assert travel(MotionConfig.seated()) < 0.3 * travel(MotionConfig.walking())

    def test_seated_head_still_moves(self, world):
        import numpy as np

        generator = MotionTraceGenerator(world, MotionConfig.seated())
        poses = generator.generate(1200, np.random.default_rng(5))
        yaws = {round(p.yaw) for p in poses}
        assert len(yaws) > 20

"""The vectorized motion regression vs the reference scalar predictor."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.prediction.motion import LinearMotionPredictor, batch_linear_predictions
from repro.prediction.pose import Pose
from tests.prediction._reference_motion import ReferenceLinearMotionPredictor


def _random_walk(rng, num_slots):
    """A pose trajectory that exercises wrap (yaw) and clamp (pitch)."""
    steps = rng.normal(scale=[0.1, 0.1, 0.02, 25.0, 12.0, 5.0], size=(num_slots, 6))
    raw = np.cumsum(steps, axis=0)
    raw[:, 3] += 170.0  # start near the +-180 seam
    raw[:, 4] = np.clip(raw[:, 4] + 80.0, -90.0, 90.0)  # ride the pitch clamp
    return [Pose.from_vector(raw[t]) for t in range(num_slots)]


class TestLinearMotionPredictor:
    @pytest.mark.parametrize("window", [2, 3, 10])
    @pytest.mark.parametrize("horizon", [1, 2])
    def test_equal_to_reference(self, window, horizon):
        rng = np.random.default_rng(7)
        predictor = LinearMotionPredictor(window=window, horizon=horizon)
        reference = ReferenceLinearMotionPredictor(window=window, horizon=horizon)
        for t, pose in enumerate(_random_walk(rng, 120)):
            # repr compares every float exactly, signs of zero included.
            assert repr(predictor.predict()) == repr(reference.predict()), t
            predictor.observe(pose)
            reference.observe(pose)

    def test_single_observation_is_the_observed_pose(self):
        pose = Pose(1.0, 2.0, 0.5, 179.99999999999997, 10.0, -5.0)
        predictor = LinearMotionPredictor(window=4, horizon=2)
        predictor.observe(pose)
        assert predictor.predict() is pose


class TestBatchLinearPredictions:
    @pytest.mark.parametrize("window", [2, 3, 10])
    def test_bitwise_equal_to_sequential(self, window):
        rng = np.random.default_rng(42)
        poses = _random_walk(rng, 120)
        vectors = np.array([p.as_vector() for p in poses])
        batch = batch_linear_predictions(vectors, window=window, horizon=1)

        predictor = ReferenceLinearMotionPredictor(window=window, horizon=1)
        for t, pose in enumerate(poses):
            sequential = predictor.predict()
            if sequential is None:
                assert np.isnan(batch[t]).all()
            else:
                assert tuple(batch[t]) == sequential.as_vector(), f"slot {t}"
            predictor.observe(pose)

    def test_short_trajectories(self):
        rng = np.random.default_rng(0)
        for num_slots in (1, 2, 3):
            vectors = np.array(
                [p.as_vector() for p in _random_walk(rng, num_slots)]
            )
            batch = batch_linear_predictions(vectors, window=10)
            assert batch.shape == (num_slots, 6)
            assert np.isnan(batch[0]).all()

    def test_rejects_bad_arguments(self):
        vectors = np.zeros((5, 6))
        with pytest.raises(ConfigurationError):
            batch_linear_predictions(vectors, window=1)
        with pytest.raises(ConfigurationError):
            batch_linear_predictions(vectors, window=5, horizon=0)
        with pytest.raises(ConfigurationError):
            batch_linear_predictions(np.zeros((5, 4)), window=3)

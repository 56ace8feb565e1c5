"""BatchMotionPredictor vs the reference scalar motion predictor.

Property test: drive a population through random walks with partial
observation masks and a mid-stream reset, and demand ``np.array_equal``
(bit-identical, NaN-free rows) between the batched fit and a fleet of
scalar predictors at every step.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernel import BatchMotionPredictor
from repro.prediction.pose import Pose
from tests.prediction._reference_motion import ReferenceLinearMotionPredictor

SEED = 20220806


def _random_poses(rng, num_users):
    poses = np.empty((num_users, 6))
    poses[:, 0:3] = rng.uniform(-50, 50, size=(num_users, 3))
    poses[:, 3] = rng.uniform(-180, 180, size=num_users)
    poses[:, 4] = rng.uniform(-90, 90, size=num_users)
    poses[:, 5] = rng.uniform(-180, 180, size=num_users)
    return poses


def _assert_matches_scalars(batch, scalars, step):
    out = batch.predict()
    for i, scalar in enumerate(scalars):
        want = scalar.predict()
        if want is None:
            assert np.all(np.isnan(out[i])), f"step {step} user {i}"
        else:
            want_arr = np.array(want.as_vector(), dtype=float)
            assert np.array_equal(out[i], want_arr), f"step {step} user {i}"


def test_matches_scalar_predictors_under_masks_and_resets():
    num_users, window, steps = 40, 10, 30
    rng = np.random.default_rng(SEED)
    batch = BatchMotionPredictor(num_users, window=window, horizon=1)
    scalars = [
        ReferenceLinearMotionPredictor(window=window, horizon=1)
        for _ in range(num_users)
    ]
    for step in range(steps):
        poses = _random_poses(rng, num_users)
        mask = rng.uniform(size=num_users) < 0.8
        batch.observe(poses, mask=mask)
        for i in np.nonzero(mask)[0]:
            scalars[i].observe(Pose(*poses[i]))
        if step == 17:
            batch.reset_user(3)
            scalars[3].reset()
        _assert_matches_scalars(batch, scalars, step)


def test_smooth_walk_matches_scalar_predictors():
    # Correlated motion (the realistic case): small angular steps, so
    # the unwrap path sees genuine wraps rather than white noise.
    num_users, window, steps = 16, 6, 25
    rng = np.random.default_rng(SEED + 1)
    batch = BatchMotionPredictor(num_users, window=window, horizon=2)
    scalars = [
        ReferenceLinearMotionPredictor(window=window, horizon=2)
        for _ in range(num_users)
    ]
    poses = _random_poses(rng, num_users)
    for step in range(steps):
        poses[:, 0:3] += rng.normal(0.0, 0.5, size=(num_users, 3))
        poses[:, 3] = (poses[:, 3] + rng.normal(15.0, 5.0, size=num_users) + 180.0) % 360.0 - 180.0
        poses[:, 4] = np.clip(poses[:, 4] + rng.normal(0.0, 3.0, size=num_users), -90.0, 90.0)
        poses[:, 5] = (poses[:, 5] + rng.normal(-10.0, 5.0, size=num_users) + 180.0) % 360.0 - 180.0
        batch.observe(poses)
        for i in range(num_users):
            scalars[i].observe(Pose(*poses[i]))
        _assert_matches_scalars(batch, scalars, step)


def test_empty_and_single_observation_rows():
    batch = BatchMotionPredictor(3, window=4)
    out = batch.predict()
    assert np.all(np.isnan(out))
    poses = np.arange(18, dtype=float).reshape(3, 6)
    batch.observe(poses, mask=np.array([True, False, False]))
    out = batch.predict()
    assert np.array_equal(out[0], poses[0])  # single obs: passthrough
    assert np.all(np.isnan(out[1:]))
    assert list(batch.num_observations) == [1, 0, 0]


def test_reset_clears_all_users():
    batch = BatchMotionPredictor(2, window=3)
    batch.observe(np.ones((2, 6)))
    batch.reset()
    assert np.all(np.isnan(batch.predict()))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_users": 0},
        {"num_users": 1, "window": 1},
        {"num_users": 1, "horizon": 0},
    ],
)
def test_bad_constructor_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        BatchMotionPredictor(**{"window": 5, **kwargs})


def test_bad_observe_and_predict_rejected():
    batch = BatchMotionPredictor(2, window=3)
    with pytest.raises(ConfigurationError):
        batch.observe(np.zeros((3, 6)))
    with pytest.raises(ConfigurationError):
        batch.predict(horizon=0)
    with pytest.raises(ConfigurationError):
        batch.reset_user(2)


def test_one_seat_observe_and_window_export():
    # observe_user is observe with a one-hot mask; export_user reads the
    # window back oldest first, also once it is full and sliding.
    rng = np.random.default_rng(SEED + 2)
    num_users, window = 3, 4
    single = BatchMotionPredictor(num_users, window=window)
    masked = BatchMotionPredictor(num_users, window=window)
    seen = [[] for _ in range(num_users)]
    for _ in range(11):
        poses = _random_poses(rng, num_users)
        user = int(rng.integers(num_users))
        single.observe_user(user, poses[user])
        masked.observe(poses, mask=np.arange(num_users) == user)
        seen[user].append(list(poses[user]))
        assert np.array_equal(single.predict(), masked.predict(), equal_nan=True)
        for n in range(num_users):
            assert single.export_user(n) == seen[n][-window:]
    single.reset_user(0)
    assert single.export_user(0) == []
    with pytest.raises(ConfigurationError):
        single.observe_user(num_users, poses[0])
    with pytest.raises(ConfigurationError):
        single.export_user(-1)

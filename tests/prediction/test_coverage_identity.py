"""CoverageEvaluator vs the scalar reference evaluator, bit for bit.

The batched ``tiles_to_deliver`` and ``indicators``, and the scalar
``evaluate`` that shares their memos, must reproduce the pre-batching
evaluator kept in ``_reference_fov.py``.  Margin 15 deg admits an
exact yaw bucket (memoized path); margin 10 deg does not, so tile
sets are computed directly.  Directions sit on bucket edges, on the
+-180 seam and on the poles as well as at random.
"""

import numpy as np
import pytest

from repro.content.projection import FieldOfView
from repro.content.tiles import GridWorld, TileGrid
from repro.errors import ConfigurationError
from repro.prediction import fov as fov_module
from repro.prediction.fov import CoverageEvaluator
from repro.prediction.pose import Pose

from tests.prediction._reference_fov import ReferenceCoverageEvaluator

SEED = 20220806

# The default grid is the paper's 2x2 partition (Fig. 5).
assert TileGrid() == TileGrid(rows=2, cols=2)
GRIDS = {"2x2": TileGrid(), "4x3": TileGrid(cols=4, rows=3)}
GEOMETRIES = [
    pytest.param(margin, grid, id=f"{margin}-{name}")
    for margin in (15.0, 10.0)
    for name, grid in GRIDS.items()
]


def _pair(margin_deg, grid=TileGrid()):
    kwargs = dict(
        world=GridWorld(),
        grid=grid,
        fov=FieldOfView(horizontal_deg=90.0, vertical_deg=90.0),
        margin_deg=margin_deg,
    )
    return CoverageEvaluator(**kwargs), ReferenceCoverageEvaluator(**kwargs)


def _poses(yaws, pitches):
    # Pose wraps yaw, exactly as every pose the server plans from.
    return [Pose(0.0, 0.0, 0.0, float(y), float(p), 0.0) for y, p in zip(yaws, pitches)]


def _edge_directions(ulp_neighbours=True):
    """Bucket edges (delivered and needed FoVs), the seam and the poles.

    One ulp off an edge the memo is exact only in real arithmetic:
    there the first direction seen for a key decides its tile set, in
    the reference as here.  Tests that drive both memos in the same
    order include those neighbours; a test whose memo is cleared
    mid-call does not.
    """
    edges = [15.0 * k for k in range(-12, 13)] + [45.0 + 11.25 * k for k in range(-20, 13)]
    edges += [-180.0, 180.0, -180.0 - 2.0**-45, 180.0 - 1e-12]
    yaws = []
    for edge in edges:
        yaws.append(edge)
        if ulp_neighbours:
            yaws.extend([np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)])
    pitches = [-90.0, -60.0, -45.0, 0.0, 45.0, 60.0, 90.0]
    grid_yaw, grid_pitch = np.meshgrid(yaws, pitches)
    return grid_yaw.ravel(), grid_pitch.ravel()


def _random_directions(rng, num):
    return rng.uniform(-180, 180, size=num), rng.uniform(-90, 90, size=num)


def _reference_indicators(reference, predicted, actual, pcell, acell):
    return np.array(
        [
            reference.evaluate(
                p, a, predicted_cell=int(pcell[i]), actual_cell=int(acell[i])
            ).indicator
            for i, (p, a) in enumerate(zip(predicted, actual))
        ],
        dtype=np.int64,
    )


def _yaw_pitch(poses):
    return [p.yaw for p in poses], [p.pitch for p in poses]


@pytest.mark.parametrize("margin,grid", GEOMETRIES)
def test_tiles_to_deliver_matches_reference(margin, grid):
    evaluator, reference = _pair(margin, grid)
    rng = np.random.default_rng(SEED)
    for yaws, pitches in (_edge_directions(), _random_directions(rng, 500)):
        poses = _poses(yaws, pitches)
        got = evaluator.tiles_to_deliver(*_yaw_pitch(poses))
        want = [tuple(sorted(reference.tiles_to_deliver(p))) for p in poses]
        assert got == want


@pytest.mark.parametrize("margin,grid", GEOMETRIES)
def test_indicators_match_reference(margin, grid):
    evaluator, reference = _pair(margin, grid)
    rng = np.random.default_rng(SEED + 3)
    world = evaluator.world
    edge_yaw, edge_pitch = _edge_directions()
    num = edge_yaw.size
    predicted = _poses(edge_yaw, edge_pitch)
    # Half the truths are a small turn away (mostly covered), half
    # are anywhere (mostly not): both outcomes are exercised.
    near = rng.permutation(predicted)
    far = _poses(*_random_directions(rng, num))
    actual = [near[i] if i % 2 else far[i] for i in range(num)]
    pcell = rng.integers(0, world.num_cells, size=num)
    acell = np.clip(pcell + rng.integers(-1, 2, size=num), 0, world.num_cells - 1)
    got = evaluator.indicators(*_yaw_pitch(predicted), *_yaw_pitch(actual), pcell, acell)
    want = _reference_indicators(reference, predicted, actual, pcell, acell)
    assert np.array_equal(got, want)
    assert 0 < got.sum() < num


@pytest.mark.parametrize("margin,grid", GEOMETRIES)
def test_evaluate_matches_reference(margin, grid):
    evaluator, reference = _pair(margin, grid)
    rng = np.random.default_rng(SEED + 4)
    world = evaluator.world
    for _ in range(300):
        predicted, actual = (
            Pose(
                float(rng.uniform(0, 10)), float(rng.uniform(0, 10)), 0.0,
                float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)),
            )
            for _ in range(2)
        )
        assert evaluator.evaluate(predicted, actual) == reference.evaluate(
            predicted, actual
        )
        cells = dict(
            predicted_cell=world.cell_of(predicted.x, predicted.y),
            actual_cell=world.cell_of(predicted.x + 0.05, predicted.y),
        )
        assert evaluator.evaluate(predicted, predicted, **cells) == (
            reference.evaluate(predicted, predicted, **cells)
        )


@pytest.mark.parametrize("margin", [15.0, 10.0])
def test_matches_scalar_evaluator_on_random_poses(margin):
    evaluator, _reference = _pair(margin)
    rng = np.random.default_rng(SEED)
    world = evaluator.world
    num = 500
    predicted = _poses(*_random_directions(rng, num))
    actual = _poses(*_random_directions(rng, num))
    pcell = rng.integers(0, world.num_cells, size=num)
    acell = rng.integers(0, world.num_cells, size=num)
    got = evaluator.indicators(*_yaw_pitch(predicted), *_yaw_pitch(actual), pcell, acell)
    want = [
        evaluator.evaluate(
            p, a, predicted_cell=int(pcell[i]), actual_cell=int(acell[i])
        ).indicator
        for i, (p, a) in enumerate(zip(predicted, actual))
    ]
    assert got.tolist() == want


@pytest.mark.parametrize("margin", [15.0, 10.0])
def test_correlated_draws_cover(margin):
    # Good predictions: actual pose and cell near the predicted ones.
    evaluator, reference = _pair(margin)
    rng = np.random.default_rng(SEED + 1)
    num = 200
    yaws = rng.uniform(-180, 180, size=num)
    pitches = rng.uniform(-60, 60, size=num)
    predicted = _poses(yaws, pitches)
    actual = _poses(
        yaws + rng.normal(0.0, 3.0, size=num),
        np.clip(pitches + rng.normal(0.0, 3.0, size=num), -90, 90),
    )
    cells = rng.integers(0, evaluator.world.num_cells, size=num)
    got = evaluator.indicators(*_yaw_pitch(predicted), *_yaw_pitch(actual), cells, cells)
    want = _reference_indicators(reference, predicted, actual, cells, cells)
    assert np.array_equal(got, want)
    assert got.sum() > num // 2  # mostly covered, not vacuously zero


def test_empty_input():
    evaluator, _reference = _pair(15.0)
    assert evaluator.tiles_to_deliver([], []) == []
    empty = np.zeros((0,))
    got = evaluator.indicators(empty, empty, empty, empty, empty, empty)
    assert got.shape == (0,)
    assert got.dtype == np.int64


@pytest.mark.parametrize("margin", [15.0, 10.0])
def test_one_call_with_more_keys_than_the_memo_limit(monkeypatch, margin):
    monkeypatch.setattr(fov_module, "_TILE_CACHE_LIMIT", 4)
    evaluator, reference = _pair(margin, TileGrid(cols=4, rows=3))
    edge_yaw, edge_pitch = _edge_directions(ulp_neighbours=False)
    rand_yaw, rand_pitch = _random_directions(np.random.default_rng(SEED + 5), 200)
    poses = _poses(np.concatenate([edge_yaw, rand_yaw]), np.concatenate([edge_pitch, rand_pitch]))
    yaws, pitches = _yaw_pitch(poses)
    memo = evaluator._deliver
    if memo.bucket is not None:
        keys = memo._keys(np.array(yaws), np.array(pitches), memo.bucket)
        assert len(set(zip(*keys.T.tolist()))) > 4
    got = evaluator.tiles_to_deliver(yaws, pitches)
    assert got == [tuple(sorted(reference.tiles_to_deliver(p))) for p in poses]
    cells = np.zeros(len(poses), dtype=np.int64)
    shifted = poses[1:] + poses[:1]
    indicators = evaluator.indicators(yaws, pitches, *_yaw_pitch(shifted), cells, cells)
    want = _reference_indicators(reference, poses, shifted, cells, cells)
    assert np.array_equal(indicators, want)
    assert len(evaluator._deliver.entries) <= 4
    assert len(evaluator._needed.entries) <= 4


def test_repeated_calls_reuse_the_memo():
    evaluator, _reference = _pair(15.0)
    rng = np.random.default_rng(SEED + 2)
    num = 64
    args = (
        *_random_directions(rng, num),
        *_random_directions(rng, num),
        rng.integers(0, evaluator.world.num_cells, size=num),
        rng.integers(0, evaluator.world.num_cells, size=num),
    )
    first = evaluator.indicators(*args)
    memo_sizes = (len(evaluator._deliver.entries), len(evaluator._needed.entries))
    second = evaluator.indicators(*args)
    assert np.array_equal(first, second)
    assert (len(evaluator._deliver.entries), len(evaluator._needed.entries)) == memo_sizes
    assert memo_sizes[0] > 0
    # The scalar path reads the very entries the batched path stored.
    pose = Pose(0.0, 0.0, 0.0, float(args[0][0]), float(args[1][0]))
    before = dict(evaluator._deliver.entries)
    outcome = evaluator.evaluate(pose, pose)
    assert evaluator._deliver.entries == before
    # ...and hands out the memoized sets, not a fresh copy per call.
    again = evaluator.evaluate(pose, pose)
    assert again.delivered_tiles is outcome.delivered_tiles
    assert again.needed_tiles is outcome.needed_tiles


def test_kernel_name_is_the_evaluator():
    """The old ``repro.kernel.coverage`` name is no second implementation."""
    from repro.kernel.coverage import BatchCoverage

    assert BatchCoverage is CoverageEvaluator


def test_shape_mismatch_rejected():
    evaluator, _reference = _pair(15.0)
    with pytest.raises(ConfigurationError):
        evaluator.indicators(
            np.zeros(3), np.zeros(3), np.zeros(2), np.zeros(3),
            np.zeros(3, dtype=int), np.zeros(3, dtype=int),
        )

"""The coverage memo must never change an evaluate() outcome."""

import numpy as np

from repro.content.projection import FieldOfView
from repro.content.tiles import GridWorld, TileGrid
from repro.prediction.fov import CoverageEvaluator
from repro.prediction.pose import Pose

from tests.prediction._reference_fov import ReferenceCoverageEvaluator


def _random_pose(rng, world):
    return Pose(
        x=float(rng.uniform(world.x_min, world.x_max)),
        y=float(rng.uniform(world.y_min, world.y_max)),
        z=0.0,
        yaw=float(rng.uniform(-180.0, 180.0)),
        pitch=float(rng.uniform(-90.0, 90.0)),
        roll=0.0,
    )


class TestCoverageCache:
    def test_cached_equals_uncached(self):
        # The memoized evaluator against the reference with its cache
        # switched off: every tile set straight from the grid.
        world = GridWorld(0.0, 4.0, 0.0, 4.0, cell_size=0.05)
        grid = TileGrid()
        cached = CoverageEvaluator(world, grid, FieldOfView())
        plain = ReferenceCoverageEvaluator(world, grid, FieldOfView(), cache=False)
        rng = np.random.default_rng(13)
        for _ in range(400):
            predicted = _random_pose(rng, world)
            actual = _random_pose(rng, world)
            a = cached.evaluate(predicted, actual)
            b = plain.evaluate(predicted, actual)
            assert a == b
        # The memo must actually be in play for the default geometry.
        assert cached._deliver.bucket is not None
        assert cached._deliver.entries

    def test_precomputed_cells_match(self):
        world = GridWorld(0.0, 4.0, 0.0, 4.0, cell_size=0.05)
        evaluator = CoverageEvaluator(world, TileGrid(), FieldOfView())
        rng = np.random.default_rng(3)
        for _ in range(100):
            predicted = _random_pose(rng, world)
            actual = _random_pose(rng, world)
            direct = evaluator.evaluate(predicted, actual)
            precomputed = evaluator.evaluate(
                predicted,
                actual,
                predicted_cell=world.cell_of(predicted.x, predicted.y),
                actual_cell=world.cell_of(actual.x, actual.y),
            )
            assert direct == precomputed

    def test_cells_of_matches_cell_of(self):
        world = GridWorld(0.0, 8.0, 0.0, 8.0, cell_size=0.05)
        rng = np.random.default_rng(21)
        xs = rng.uniform(-1.0, 9.0, size=500)  # includes out-of-bounds
        ys = rng.uniform(-1.0, 9.0, size=500)
        vectorized = world.cells_of(xs, ys)
        for i in range(len(xs)):
            assert int(vectorized[i]) == world.cell_of(float(xs[i]), float(ys[i]))

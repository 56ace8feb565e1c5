"""Tests for the coverage indicator 1_n(t)."""

import pytest

from repro.content.projection import FieldOfView
from repro.content.tiles import GridWorld, TileGrid
from repro.errors import ConfigurationError
from repro.prediction.fov import CoverageEvaluator
from repro.prediction.pose import Pose


@pytest.fixture
def evaluator():
    world = GridWorld(0.0, 8.0, 0.0, 8.0, cell_size=0.05)
    return CoverageEvaluator(world, TileGrid(), FieldOfView(), margin_deg=15.0)


def pose(x=4.0, y=4.0, yaw=0.0, pitch=0.0):
    return Pose(x, y, 1.6, yaw, pitch)


class TestCoverageEvaluator:
    def test_perfect_prediction_covers(self, evaluator):
        outcome = evaluator.evaluate(pose(), pose())
        assert outcome.covered
        assert outcome.indicator == 1

    def test_small_orientation_error_within_margin(self, evaluator):
        outcome = evaluator.evaluate(pose(yaw=0.0), pose(yaw=10.0))
        assert outcome.covered

    def test_large_orientation_error_can_fail(self, evaluator):
        # Predicted facing east, user actually turned to face west:
        # the needed tiles cannot all be in the delivered set.
        outcome = evaluator.evaluate(pose(yaw=90.0), pose(yaw=-90.0))
        assert not outcome.covered
        assert outcome.indicator == 0

    def test_wrong_cell_fails(self, evaluator):
        outcome = evaluator.evaluate(pose(x=4.0), pose(x=5.0))
        assert outcome.predicted_cell != outcome.actual_cell
        assert not outcome.covered

    def test_cell_tolerance_allows_neighbours(self, evaluator):
        # One cell off (5 cm) within the default tolerance of 1.
        outcome = evaluator.evaluate(pose(x=4.0), pose(x=4.05))
        assert outcome.covered

    def test_zero_tolerance_requires_exact_cell(self):
        world = GridWorld(0.0, 8.0, 0.0, 8.0, cell_size=0.05)
        strict = CoverageEvaluator(
            world, TileGrid(), FieldOfView(), margin_deg=15.0, cell_tolerance=0
        )
        outcome = strict.evaluate(pose(x=4.0), pose(x=4.06))
        assert not outcome.covered

    def test_delivered_superset_of_prediction_fov(self, evaluator):
        predicted = pose(yaw=30.0)
        [delivered] = evaluator.tiles_to_deliver([predicted.yaw], [predicted.pitch])
        needed_if_exact = evaluator.evaluate(predicted, predicted).needed_tiles
        assert needed_if_exact <= frozenset(delivered)

    def test_outcome_reports_tile_sets(self, evaluator):
        outcome = evaluator.evaluate(pose(), pose())
        assert outcome.needed_tiles <= outcome.delivered_tiles
        assert len(outcome.delivered_tiles) >= 1

    def test_zero_margin_is_fragile(self):
        world = GridWorld(0.0, 8.0, 0.0, 8.0, cell_size=0.05)
        tight = CoverageEvaluator(
            world, TileGrid(), FieldOfView(), margin_deg=0.0
        )
        wide = CoverageEvaluator(
            world, TileGrid(), FieldOfView(), margin_deg=30.0
        )
        # An error that the wide margin absorbs but zero margin may not:
        # facing a tile boundary makes the needed set flip.
        predicted, actual = pose(yaw=-40.0), pose(yaw=-55.0)
        assert wide.evaluate(predicted, actual).covered
        tight_outcome = tight.evaluate(predicted, actual)
        wide_outcome = wide.evaluate(predicted, actual)
        assert len(wide_outcome.delivered_tiles) >= len(tight_outcome.delivered_tiles)

    def test_rejects_bad_parameters(self):
        world = GridWorld(0.0, 8.0, 0.0, 8.0, cell_size=0.05)
        with pytest.raises(ConfigurationError):
            CoverageEvaluator(world, TileGrid(), margin_deg=-1.0)
        with pytest.raises(ConfigurationError):
            CoverageEvaluator(world, TileGrid(), cell_tolerance=-1)

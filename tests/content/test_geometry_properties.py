"""Property-based tests for the FoV/tile geometry.

The coverage indicator's correctness rests on a geometric contract:
every view direction inside a FoV must belong to a tile in that FoV's
overlap set.  These tests verify it by sampling directions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.content.projection import FieldOfView, wrap_angle_deg
from repro.content.tiles import GridWorld, TileGrid
from repro.prediction.fov import CoverageEvaluator
from repro.prediction.pose import Pose

yaw_st = st.floats(-180.0, 179.999, allow_nan=False)
pitch_st = st.floats(-89.0, 89.0, allow_nan=False)
extent_st = st.floats(20.0, 170.0, allow_nan=False)


@given(yaw_st, pitch_st, extent_st, extent_st)
@settings(max_examples=150, deadline=None)
def test_fov_interior_directions_covered_by_overlap_set(
    center_yaw, center_pitch, h_extent, v_extent
):
    """Any direction inside the FoV maps to an overlapped tile."""
    grid = TileGrid()
    fov = FieldOfView(h_extent, min(v_extent, 178.0))
    tiles = grid.tiles_overlapping(center_yaw, center_pitch, fov)
    # Sample the FoV interior on a coarse lattice.
    for fy in (-0.49, -0.25, 0.0, 0.25, 0.49):
        for fp in (-0.49, 0.0, 0.49):
            yaw = wrap_angle_deg(center_yaw + fy * fov.horizontal_deg)
            pitch = center_pitch + fp * fov.vertical_deg
            pitch = min(max(pitch, -90.0), 90.0)
            assert grid.tile_of(yaw, pitch) in tiles


@given(yaw_st, pitch_st)
@settings(max_examples=100, deadline=None)
def test_perfect_prediction_always_covered(yaw, pitch):
    """evaluate(p, p) must report coverage for any pose."""
    world = GridWorld(0.0, 8.0, 0.0, 8.0, cell_size=0.05)
    evaluator = CoverageEvaluator(world, TileGrid(), FieldOfView(), margin_deg=10.0)
    pose = Pose(4.0, 4.0, 1.6, yaw, pitch)
    assert evaluator.evaluate(pose, pose).covered


@given(yaw_st, pitch_st, st.floats(0.0, 40.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_margin_monotone_in_delivered_tiles(yaw, pitch, margin):
    """A larger margin never delivers fewer tiles."""
    world = GridWorld(0.0, 8.0, 0.0, 8.0, cell_size=0.05)
    narrow = CoverageEvaluator(world, TileGrid(), FieldOfView(), margin_deg=margin)
    wide = CoverageEvaluator(
        world, TileGrid(), FieldOfView(), margin_deg=margin + 10.0
    )
    pose = Pose(4.0, 4.0, 1.6, yaw, pitch)
    [narrow_tiles] = narrow.tiles_to_deliver([pose.yaw], [pose.pitch])
    [wide_tiles] = wide.tiles_to_deliver([pose.yaw], [pose.pitch])
    assert set(narrow_tiles) <= set(wide_tiles)


@given(yaw_st, pitch_st, st.floats(-15.0, 15.0), st.floats(-15.0, 15.0))
@settings(max_examples=100, deadline=None)
def test_small_orientation_errors_absorbed_by_margin(
    yaw, pitch, yaw_err, pitch_err
):
    """Errors strictly inside the margin never break coverage."""
    world = GridWorld(0.0, 8.0, 0.0, 8.0, cell_size=0.05)
    evaluator = CoverageEvaluator(
        world, TileGrid(), FieldOfView(), margin_deg=16.0
    )
    predicted = Pose(4.0, 4.0, 1.6, yaw, pitch)
    actual_pitch = min(max(pitch + pitch_err, -90.0), 90.0)
    actual = Pose(4.0, 4.0, 1.6, yaw + yaw_err, actual_pitch)
    assert evaluator.evaluate(predicted, actual).covered

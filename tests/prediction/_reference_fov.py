"""Reference copy of the scalar coverage evaluator.

This is ``CoverageEvaluator`` as it was written before the package
selected tiles for a whole slot in one batched sweep: one pose at a
time, with a per-FoV frozenset memo that a ``cache=False`` knob could
switch off.  It is kept verbatim so the batched ``tiles_to_deliver``
and ``indicators`` — and the scalar ``evaluate`` that shares their
memos — can be checked bit for bit against independent code.  It
lives under ``tests/`` only and is never imported by the package.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Optional

from repro.content.projection import FieldOfView, wrap_angle_deg
from repro.content.tiles import GridWorld, TileGrid
from repro.errors import ConfigurationError
from repro.prediction.fov import CoverageOutcome
from repro.prediction.pose import Pose

#: Bound on each tile-overlap memo.
_TILE_CACHE_LIMIT = 65536


class ReferenceCoverageEvaluator:
    """Decides which tiles to deliver and whether they covered the FoV.

    Parameters
    ----------
    world:
        Viewpoint grid (position -> cell).
    grid:
        Panorama tile partition (Fig. 5).
    fov:
        The user's true field of view.
    margin_deg:
        Fixed angular margin added on every side of the predicted FoV
        when selecting tiles to deliver (Section V: "transmit all
        tiles that overlap with this margin").
    cell_tolerance:
        Chebyshev cell distance within which a predicted viewpoint
        still shows the correct panorama.  0 requires an exact cell
        match; the 5 cm grid of the paper makes a small tolerance
        realistic since adjacent panoramas are nearly identical.
    cache:
        Memoize the tile-overlap queries (the hot cost of
        :meth:`evaluate`) on exact yaw-bucket / pitch-row keys.  The
        bucket width is derived from the tile geometry so that every
        direction in a bucket provably yields the same tile set (see
        :meth:`_bucket_deg`); when the geometry does not admit an
        exact bucket the cache disables itself, so caching never
        changes results.
    """

    def __init__(
        self,
        world: GridWorld,
        grid: TileGrid,
        fov: FieldOfView = FieldOfView(),
        margin_deg: float = 15.0,
        cell_tolerance: int = 1,
        cache: bool = True,
    ) -> None:
        if margin_deg < 0:
            raise ConfigurationError(f"margin must be non-negative, got {margin_deg}")
        if cell_tolerance < 0:
            raise ConfigurationError(
                f"cell_tolerance must be non-negative, got {cell_tolerance}"
            )
        self.world = world
        self.grid = grid
        self.fov = fov
        self.margin_deg = margin_deg
        self.cell_tolerance = cell_tolerance
        self._delivery_fov = fov.with_margin(margin_deg)
        self._deliver_bucket = self._bucket_deg(self._delivery_fov) if cache else None
        self._needed_bucket = self._bucket_deg(self.fov) if cache else None
        self._deliver_cache: Dict[tuple, FrozenSet[int]] = {}
        self._needed_cache: Dict[tuple, FrozenSet[int]] = {}

    def _bucket_deg(self, fov: FieldOfView) -> Optional[float]:
        """Yaw bucket width under which the overlap query is constant.

        :meth:`TileGrid.tiles_overlapping` samples the yaw interval at
        ``step = span / steps`` spacing; the resulting column set is a
        function of ``floor(wrap(yaw_lo) / step)`` alone whenever the
        column width ``360 / cols`` is an integer multiple of the step
        (every sample then crosses column boundaries at multiples of
        the step).  Returns that exact bucket width, ``inf`` when the
        FoV spans the full circle (yaw-independent), or ``None`` when
        no exact bucket exists and caching must stay off.
        """
        yaw_lo, yaw_hi = fov.yaw_range(0.0)
        span = yaw_hi - yaw_lo
        if span >= 360.0 - 1e-9:
            return math.inf
        steps = max(4 * self.grid.cols, 8)
        step = span / steps
        if step <= 0.0:
            return None
        ratio = (360.0 / self.grid.cols) / step
        if abs(ratio - round(ratio)) > 1e-9:
            return None
        return step

    def _tiles_cached(
        self,
        yaw_deg: float,
        pitch_deg: float,
        fov: FieldOfView,
        bucket: Optional[float],
        cache: Dict[tuple, FrozenSet[int]],
    ) -> FrozenSet[int]:
        """Overlap query through the exact memo (or straight through)."""
        if bucket is None:
            return self.grid.tiles_overlapping(yaw_deg, pitch_deg, fov)
        yaw_lo, _yaw_hi = fov.yaw_range(yaw_deg)
        pitch_lo, pitch_hi = fov.pitch_range(pitch_deg)
        yaw_key = (
            0 if math.isinf(bucket) else math.floor(wrap_angle_deg(yaw_lo) / bucket)
        )
        key = (yaw_key, self.grid.row_of(pitch_lo), self.grid.row_of(pitch_hi))
        tiles = cache.get(key)
        if tiles is None:
            if len(cache) >= _TILE_CACHE_LIMIT:
                cache.clear()
            tiles = cache[key] = self.grid.tiles_overlapping(yaw_deg, pitch_deg, fov)
        return tiles

    def tiles_to_deliver(self, predicted: Pose) -> FrozenSet[int]:
        """Tiles overlapping the predicted FoV enlarged by the margin."""
        return self._tiles_cached(
            predicted.yaw,
            predicted.pitch,
            self._delivery_fov,
            self._deliver_bucket,
            self._deliver_cache,
        )

    def tiles_needed(self, actual: Pose) -> FrozenSet[int]:
        """Tiles overlapping the true (margin-free) FoV."""
        return self._tiles_cached(
            actual.yaw, actual.pitch, self.fov, self._needed_bucket, self._needed_cache
        )

    def _cells_close(self, cell_a: int, cell_b: int) -> bool:
        row_a, col_a = divmod(cell_a, self.world.cols)
        row_b, col_b = divmod(cell_b, self.world.cols)
        return (
            abs(row_a - row_b) <= self.cell_tolerance
            and abs(col_a - col_b) <= self.cell_tolerance
        )

    def evaluate(
        self,
        predicted: Pose,
        actual: Pose,
        predicted_cell: Optional[int] = None,
        actual_cell: Optional[int] = None,
    ) -> CoverageOutcome:
        """Compute ``1_n(t)`` for one slot.

        Coverage requires (a) the predicted viewpoint cell to be within
        the tolerance of the actual cell and (b) every tile the true
        FoV needs to be inside the delivered set.  Callers that have
        already looked the cells up (the simulator precomputes them
        per episode) may pass them to skip the redundant grid queries.
        """
        delivered = self.tiles_to_deliver(predicted)
        needed = self.tiles_needed(actual)
        if predicted_cell is None:
            predicted_cell = self.world.cell_of(predicted.x, predicted.y)
        if actual_cell is None:
            actual_cell = self.world.cell_of(actual.x, actual.y)
        covered = self._cells_close(predicted_cell, actual_cell) and needed <= delivered
        return CoverageOutcome(covered, delivered, needed, predicted_cell, actual_cell)

"""The coverage indicator ``1_n(t)``.

Section II: the server delivers "a portion that covers the FoV with
some fixed margin"; ``1_n(t) = 1`` when the delivered portion covers
the *actual* FoV, considering both virtual location and head
orientation.  The footnote notes that the margin only absorbs
orientation error; location error is judged by whether the predicted
grid cell matches the actual one (a wrong viewpoint cell means the
delivered panorama is the wrong one entirely).

The server selects a slot's tiles and the simulator scores an episode
in one batched call each; a phone scores its frame with the scalar
:meth:`CoverageEvaluator.evaluate`.  All read the same exact memos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.content.projection import FieldOfView, wrap_angle_deg
from repro.content.tiles import GridWorld, TileGrid
from repro.errors import ConfigurationError
from repro.prediction.pose import Pose

if TYPE_CHECKING:
    from numpy.typing import ArrayLike


#: Bound on each tile-overlap memo.  The exact-bucket key space is
#: tiny for any sane geometry (buckets x pitch rows squared), so the
#: limit never binds there; it guards against a pathological bucket
#: width growing the memo without limit over a long-lived server.
_TILE_CACHE_LIMIT = 65536

#: One memo entry: a tile set as a sorted tuple, a frozenset and a bitmask.
_TileEntry = Tuple[Tuple[int, ...], FrozenSet[int], int]


@dataclass(frozen=True)
class CoverageOutcome:
    """Result of evaluating one slot's delivery against the truth."""

    covered: bool
    delivered_tiles: FrozenSet[int]
    needed_tiles: FrozenSet[int]
    predicted_cell: int
    actual_cell: int

    @property
    def indicator(self) -> int:
        """``1_n(t)`` as an integer."""
        return 1 if self.covered else 0


def _bucket_deg(grid: TileGrid, fov: FieldOfView) -> Optional[float]:
    """Yaw bucket width under which the overlap query is constant.

    :meth:`TileGrid.tiles_overlapping` samples the yaw interval at
    ``step = span / steps`` spacing; the resulting column set is a
    function of ``floor(wrap(yaw_lo) / step)`` alone whenever the
    column width ``360 / cols`` is an integer multiple of the step
    (every sample then crosses column boundaries at multiples of the
    step).  Returns that exact bucket width, ``inf`` when the FoV
    spans the full circle (yaw-independent), or ``None`` when no exact
    bucket exists and tile sets must be computed directly.
    """
    yaw_lo, yaw_hi = fov.yaw_range(0.0)
    span = yaw_hi - yaw_lo
    if span >= 360.0 - 1e-9:
        return math.inf
    steps = max(4 * grid.cols, 8)
    step = span / steps
    if step <= 0.0:
        return None
    ratio = (360.0 / grid.cols) / step
    if abs(ratio - round(ratio)) > 1e-9:
        return None
    return step


class _TileMemo:
    """Exact tile-overlap memo for one field of view.

    Keys are ``(yaw bucket, row of the low pitch, row of the high
    pitch)``; every direction with the same key overlaps the same
    tiles (see :func:`_bucket_deg`), so memoizing does not change a
    result.  That holds in real arithmetic: within a rounding error of
    a bucket edge the grid's yaw sampling can land on the far side of
    a column boundary, and the first direction stored for a key
    decides its tiles.  Without an exact bucket nothing is memoized.
    """

    def __init__(self, grid: TileGrid, fov: FieldOfView) -> None:
        self.grid = grid
        self.fov = fov
        self.bucket = _bucket_deg(grid, fov)
        self.entries: Dict[Tuple[int, int, int], _TileEntry] = {}

    def _query(self, yaw: float, pitch: float) -> _TileEntry:
        tile_set = self.grid.tiles_overlapping(yaw, pitch, self.fov)
        mask = 0
        for tile in tile_set:
            mask |= 1 << tile
        return tuple(sorted(tile_set)), tile_set, mask

    def _store(
        self, key: Tuple[int, int, int], yaw: float, pitch: float
    ) -> _TileEntry:
        if len(self.entries) >= _TILE_CACHE_LIMIT:
            self.entries.clear()
        entry = self.entries[key] = self._query(yaw, pitch)
        return entry

    def lookup(self, yaw: float, pitch: float) -> _TileEntry:
        """One direction's entry, keyed with scalar arithmetic."""
        bucket = self.bucket
        if bucket is None:
            return self._query(yaw, pitch)
        yaw_lo, _yaw_hi = self.fov.yaw_range(yaw)
        pitch_lo, pitch_hi = self.fov.pitch_range(pitch)
        yaw_key = (
            0 if math.isinf(bucket) else math.floor(wrap_angle_deg(yaw_lo) / bucket)
        )
        key = (yaw_key, self.grid.row_of(pitch_lo), self.grid.row_of(pitch_hi))
        entry = self.entries.get(key)
        if entry is None:
            entry = self._store(key, yaw, pitch)
        return entry

    def _keys(
        self, yaw: np.ndarray, pitch: np.ndarray, bucket: float
    ) -> np.ndarray:
        """``(N, 3)`` memo keys — :meth:`lookup`'s key math on arrays."""
        half_h = self.fov.horizontal_deg / 2.0
        half_v = self.fov.vertical_deg / 2.0
        if math.isinf(bucket):
            yaw_key = np.zeros(yaw.shape, dtype=np.int64)
        else:
            wrapped = (yaw - half_h + 180.0) % 360.0 - 180.0
            yaw_key = np.floor(wrapped / bucket).astype(np.int64)
        rows = self.grid.rows
        pitch_lo = np.maximum(pitch - half_v, -90.0)
        pitch_hi = np.minimum(pitch + half_v, 90.0)
        row_lo = np.minimum(
            ((90.0 - pitch_lo) / 180.0 * rows).astype(np.int64), rows - 1
        )
        row_hi = np.minimum(
            ((90.0 - pitch_hi) / 180.0 * rows).astype(np.int64), rows - 1
        )
        return np.stack([yaw_key, row_lo, row_hi], axis=1)

    def lookup_many(self, yaw: np.ndarray, pitch: np.ndarray) -> List[_TileEntry]:
        """Every direction's entry; each distinct key is queried once."""
        yaws = yaw.tolist()
        pitches = pitch.tolist()
        if self.bucket is None:
            return [self._query(y, p) for y, p in zip(yaws, pitches)]
        keys = self._keys(yaw, pitch, self.bucket)
        entries = self.entries
        found: List[_TileEntry] = []
        for i, key in enumerate(zip(*keys.T.tolist())):
            entry = entries.get(key)
            if entry is None:
                entry = self._store(key, yaws[i], pitches[i])
            found.append(entry)
        return found


def _vector(values: ArrayLike) -> np.ndarray:
    return np.asarray(values, dtype=float)


class CoverageEvaluator:
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

    Tile-overlap queries go through one exact memo per field of view
    (delivered and needed), keyed on yaw-bucket / pitch-row; when the
    geometry admits no exact bucket, tile sets are computed directly.
    """

    def __init__(
        self,
        world: GridWorld,
        grid: TileGrid,
        fov: FieldOfView = FieldOfView(),
        margin_deg: float = 15.0,
        cell_tolerance: int = 1,
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
        self._deliver = _TileMemo(grid, fov.with_margin(margin_deg))
        self._needed = _TileMemo(grid, fov)

    def tiles_to_deliver(
        self, yaw: ArrayLike, pitch: ArrayLike
    ) -> List[Tuple[int, ...]]:
        """Tiles overlapping each predicted FoV enlarged by the margin.

        ``yaw``/``pitch`` are ``(N,)`` predicted view directions; the
        result holds one sorted tile tuple per entry.
        """
        entries = self._deliver.lookup_many(_vector(yaw), _vector(pitch))
        return [tiles for tiles, _set, _mask in entries]

    def indicators(
        self,
        predicted_yaw: ArrayLike,
        predicted_pitch: ArrayLike,
        actual_yaw: ArrayLike,
        actual_pitch: ArrayLike,
        predicted_cells: ArrayLike,
        actual_cells: ArrayLike,
    ) -> np.ndarray:
        """``1_n(t)`` per entry — identical to :meth:`evaluate`.

        All six inputs share one ``(N,)`` shape; cells are viewpoint
        cell ids (see :meth:`~repro.content.tiles.GridWorld.cells_of`).
        """
        p_yaw, p_pitch = _vector(predicted_yaw), _vector(predicted_pitch)
        a_yaw, a_pitch = _vector(actual_yaw), _vector(actual_pitch)
        p_cells = np.asarray(predicted_cells, dtype=np.int64)
        a_cells = np.asarray(actual_cells, dtype=np.int64)
        num = p_yaw.shape[0]
        for a in (p_pitch, a_yaw, a_pitch, p_cells, a_cells):
            if a.shape != (num,):
                raise ConfigurationError(
                    "all batch coverage inputs must share one (N,) shape"
                )
        delivered = np.array(
            [mask for _tiles, _set, mask in self._deliver.lookup_many(p_yaw, p_pitch)],
            dtype=np.int64,
        )
        needed = np.array(
            [mask for _tiles, _set, mask in self._needed.lookup_many(a_yaw, a_pitch)],
            dtype=np.int64,
        )
        row_a, col_a = np.divmod(p_cells, self.world.cols)
        row_b, col_b = np.divmod(a_cells, self.world.cols)
        tolerance = self.cell_tolerance
        close = (np.abs(row_a - row_b) <= tolerance) & (
            np.abs(col_a - col_b) <= tolerance
        )
        covered = close & ((needed & ~delivered) == 0)
        return covered.astype(np.int64)

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
        already looked the cells up may pass them to skip the
        redundant grid queries.
        """
        _tiles, delivered, delivered_mask = self._deliver.lookup(
            predicted.yaw, predicted.pitch
        )
        _tiles, needed, needed_mask = self._needed.lookup(actual.yaw, actual.pitch)
        if predicted_cell is None:
            predicted_cell = self.world.cell_of(predicted.x, predicted.y)
        if actual_cell is None:
            actual_cell = self.world.cell_of(actual.x, actual.y)
        covered = (
            self._cells_close(predicted_cell, actual_cell)
            and not needed_mask & ~delivered_mask
        )
        return CoverageOutcome(
            covered, delivered, needed, predicted_cell, actual_cell
        )

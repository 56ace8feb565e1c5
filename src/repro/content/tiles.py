"""Tile partitioning, the viewpoint grid world, and video ids.

Section V-VI of the paper: the panorama at every viewpoint of a 5 cm
grid is split into four tiles, and "all the tiles will be indexed by a
video ID corresponding to their position, tile ID, and quality", so
that runtime communication only exchanges compact integer ids.  This
module reproduces the grid world, the tile partition (Fig. 5), the
FoV-to-tile overlap query, and the video-id codec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Iterable, List, Set, Tuple

import numpy as np

from repro.content.projection import FieldOfView, wrap_angle_deg
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from numpy.typing import ArrayLike


@dataclass(frozen=True)
class TileGrid:
    """Partition of an equirectangular panorama into a tile grid.

    The paper splits each texture into four tiles (Fig. 5); the default
    2 x 2 grid matches that.  Tiles are indexed row-major: tile 0 is
    the top-left (westmost yaw, highest pitch).
    """

    cols: int = 2
    rows: int = 2

    def __post_init__(self) -> None:
        if self.cols < 1 or self.rows < 1:
            raise ConfigurationError(
                f"tile grid must be at least 1x1, got {self.cols}x{self.rows}"
            )

    @property
    def num_tiles(self) -> int:
        return self.cols * self.rows

    def tile_of(self, yaw_deg: float, pitch_deg: float) -> int:
        """Tile index containing a view direction."""
        u = (wrap_angle_deg(yaw_deg) + 180.0) / 360.0
        v = (90.0 - pitch_deg) / 180.0
        col = min(int(u * self.cols), self.cols - 1)
        row = min(int(v * self.rows), self.rows - 1)
        return row * self.cols + col

    def _col_range(self, yaw_lo: float, yaw_hi: float) -> Set[int]:
        """Columns overlapped by a yaw interval (handles wraparound)."""
        span = yaw_hi - yaw_lo
        if span >= 360.0 - 1e-9:
            return set(range(self.cols))
        cols: Set[int] = set()
        # March across the interval in steps finer than one column so
        # no overlapped column is skipped; cheap because cols is tiny
        # (2 in the paper).
        steps = max(4 * self.cols, 8)
        for i in range(steps + 1):
            yaw = yaw_lo + span * i / steps
            u = (wrap_angle_deg(yaw) + 180.0) / 360.0
            cols.add(min(int(u * self.cols), self.cols - 1))
        return cols

    def row_of(self, pitch_deg: float) -> int:
        """Row index containing a pitch angle."""
        return min(int((90.0 - pitch_deg) / 180.0 * self.rows), self.rows - 1)

    def tiles_overlapping(
        self,
        center_yaw_deg: float,
        center_pitch_deg: float,
        fov: FieldOfView,
    ) -> FrozenSet[int]:
        """Tiles overlapped by a FoV centred at the given direction.

        The paper transmits "all tiles that overlap with this margin"
        (Section V); this is the overlap query it relies on.
        """
        yaw_lo, yaw_hi = fov.yaw_range(center_yaw_deg)
        pitch_lo, pitch_hi = fov.pitch_range(center_pitch_deg)
        cols = self._col_range(yaw_lo, yaw_hi)
        rows = set(range(self.row_of(pitch_hi), self.row_of(pitch_lo) + 1))
        return frozenset(r * self.cols + c for r in rows for c in cols)


@dataclass(frozen=True)
class GridWorld:
    """The 5 cm viewpoint grid of the offline-rendered scene.

    Continuous positions (metres) map to integer cells; each cell has
    a pre-rendered panorama in the tile database.
    """

    x_min: float = 0.0
    x_max: float = 10.0
    y_min: float = 0.0
    y_max: float = 10.0
    cell_size: float = 0.05

    def __post_init__(self) -> None:
        if self.cell_size <= 0:
            raise ConfigurationError(f"cell_size must be positive, got {self.cell_size}")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ConfigurationError("grid world bounds must be non-degenerate")

    @property
    def cols(self) -> int:
        return int(math.ceil((self.x_max - self.x_min) / self.cell_size))

    @property
    def rows(self) -> int:
        return int(math.ceil((self.y_max - self.y_min) / self.cell_size))

    @property
    def num_cells(self) -> int:
        return self.cols * self.rows

    def clamp(self, x: float, y: float) -> Tuple[float, float]:
        """Clamp a position into the world bounds."""
        eps = 1e-9
        return (
            min(max(x, self.x_min), self.x_max - eps),
            min(max(y, self.y_min), self.y_max - eps),
        )

    def cell_of(self, x: float, y: float) -> int:
        """Integer cell id of a continuous position."""
        x, y = self.clamp(x, y)
        col = int((x - self.x_min) / self.cell_size)
        row = int((y - self.y_min) / self.cell_size)
        col = min(col, self.cols - 1)
        row = min(row, self.rows - 1)
        return row * self.cols + col

    def cells_of(self, xs: ArrayLike, ys: ArrayLike) -> np.ndarray:
        """Vectorized :meth:`cell_of` over position arrays.

        Accepts array-likes of equal shape and returns an integer
        array of cell ids; replicates the scalar clamp/truncate
        arithmetic exactly, so ``cells_of(xs, ys)[i] ==
        cell_of(xs[i], ys[i])`` bit-for-bit.
        """
        eps = 1e-9
        x = np.minimum(np.maximum(np.asarray(xs, dtype=float), self.x_min), self.x_max - eps)
        y = np.minimum(np.maximum(np.asarray(ys, dtype=float), self.y_min), self.y_max - eps)
        col = np.minimum(((x - self.x_min) / self.cell_size).astype(int), self.cols - 1)
        row = np.minimum(((y - self.y_min) / self.cell_size).astype(int), self.rows - 1)
        return row * self.cols + col

    def cell_center(self, cell_id: int) -> Tuple[float, float]:
        """Continuous centre position of a cell."""
        if not 0 <= cell_id < self.num_cells:
            raise ConfigurationError(
                f"cell_id must be in 0..{self.num_cells - 1}, got {cell_id}"
            )
        row, col = divmod(cell_id, self.cols)
        return (
            self.x_min + (col + 0.5) * self.cell_size,
            self.y_min + (row + 0.5) * self.cell_size,
        )

    def cells_within(self, cell_id: int, radius_cells: int) -> List[int]:
        """Cells within a Chebyshev radius — the server's cache window.

        Section V: "the server only needs to cache the tiles within a
        range of the user's current position".
        """
        if radius_cells < 0:
            raise ConfigurationError(f"radius must be non-negative, got {radius_cells}")
        row, col = divmod(cell_id, self.cols)
        cells = []
        for r in range(max(0, row - radius_cells), min(self.rows, row + radius_cells + 1)):
            for c in range(max(0, col - radius_cells), min(self.cols, col + radius_cells + 1)):
                cells.append(r * self.cols + c)
        return cells


#: Bit widths of the video-id codec fields.
_LEVEL_BITS = 4
_TILE_BITS = 4


@dataclass(frozen=True)
class TileKey:
    """(viewpoint cell, tile index, quality level) — one encoded tile."""

    cell_id: int
    tile_index: int
    level: int

    def __post_init__(self) -> None:
        if self.cell_id < 0:
            raise ConfigurationError(f"cell_id must be non-negative, got {self.cell_id}")
        if not 0 <= self.tile_index < (1 << _TILE_BITS):
            raise ConfigurationError(f"tile_index out of range: {self.tile_index}")
        if not 1 <= self.level < (1 << _LEVEL_BITS):
            raise ConfigurationError(f"level out of range: {self.level}")


class VideoId:
    """Compact integer codec for :class:`TileKey`.

    The paper indexes tiles "by a video ID corresponding to their
    position, tile ID, and quality" so only ids travel on the wire.
    """

    @staticmethod
    def encode(key: TileKey) -> int:
        return (
            (key.cell_id << (_TILE_BITS + _LEVEL_BITS))
            | (key.tile_index << _LEVEL_BITS)
            | key.level
        )

    @staticmethod
    def decode(video_id: int) -> TileKey:
        if video_id < 0:
            raise ConfigurationError(f"video id must be non-negative, got {video_id}")
        level = video_id & ((1 << _LEVEL_BITS) - 1)
        tile_index = (video_id >> _LEVEL_BITS) & ((1 << _TILE_BITS) - 1)
        cell_id = video_id >> (_TILE_BITS + _LEVEL_BITS)
        return TileKey(cell_id, tile_index, level)

    @staticmethod
    def encode_many(keys: Iterable[TileKey]) -> List[int]:
        return [VideoId.encode(k) for k in keys]

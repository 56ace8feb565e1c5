"""Tile database index and the server-side cache window.

Section V: "we have rendered all possible tiles of the scene in Unity
before the transmission ... the server will hold a buffer in the
memory during the runtime to cache some of the tiles ... the server
only needs to cache the tiles within a range of the user's current
position and dynamically adjust the cached content".

:class:`TileDatabase` is the offline index: it knows the size of every
(cell, tile, level) and the total footprint (the paper quotes 171 GB
for the Office scene).  :class:`ServerTileCache` is the runtime memory
window that tracks hits/misses as users move.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

from repro.content.rate import QualityRateCurve, RateModel
from repro.content.tiles import GridWorld, TileGrid, TileKey, VideoId
from repro.errors import ConfigurationError
from repro.units import SLOT_DURATION_S


@dataclass
class TileDatabase:
    """Offline index of every encoded tile in the scene.

    Tile sizes derive from the :class:`RateModel`, whose curve is
    calibrated to the *delivered tile set* (what Fig. 1a plots and
    what the 36 Mbps-per-user budget rule of Section IV refers to):
    one tile costs ``curve(level) / typical_tiles_delivered``.  With the
    default 2x2 grid and a 120-degree delivery FoV the request usually
    overlaps all 4 tiles, so ``typical_tiles_delivered = 4`` makes the
    nominal rate curve the allocator reasons with, while the actual
    per-slot demand fluctuates with the real overlap count.
    """

    world: GridWorld
    grid: TileGrid = field(default_factory=TileGrid)
    rate_model: RateModel = field(default_factory=RateModel)
    typical_tiles_delivered: float = 4.0

    def __post_init__(self) -> None:
        if self.typical_tiles_delivered <= 0:
            raise ConfigurationError(
                "typical_tiles_delivered must be positive, got "
                f"{self.typical_tiles_delivered}"
            )

    @property
    def num_levels(self) -> int:
        return self.rate_model.num_levels

    def tile_rate_mbps(self, key: TileKey) -> float:
        """Mbps-equivalent delivery rate of one tile for one slot."""
        return self._tile_rate_mbps(self.rate_model.curve(key.cell_id), key)

    def tile_size_bits(self, key: TileKey, slot_s: float = SLOT_DURATION_S) -> float:
        """Stored size of one tile in bits."""
        return self.tile_size_bits_from(
            self.rate_model.curve(key.cell_id), key, slot_s
        )

    def tile_size_bits_from(
        self,
        curve: QualityRateCurve,
        key: TileKey,
        slot_s: float = SLOT_DURATION_S,
    ) -> float:
        """:meth:`tile_size_bits` given the rate curve of ``key.cell_id``.

        For a caller that already holds the curve; the result is the
        same float, computed in the same order.
        """
        return self._tile_rate_mbps(curve, key) * 1e6 * slot_s

    def _tile_rate_mbps(self, curve: QualityRateCurve, key: TileKey) -> float:
        if not 0 <= key.tile_index < self.grid.num_tiles:
            raise ConfigurationError(
                f"tile_index must be in 0..{self.grid.num_tiles - 1}, got {key.tile_index}"
            )
        return curve.size(key.level) / self.typical_tiles_delivered

    def tiles_for(
        self, cell_id: int, tile_indices: Iterable[int], level: int
    ) -> List[TileKey]:
        """Tile keys for a set of tile indices at one cell and level."""
        return [TileKey(cell_id, idx, level) for idx in sorted(set(tile_indices))]

    def total_footprint_gb(self, slot_s: float = SLOT_DURATION_S) -> float:
        """Total database size across all cells, tiles, and levels."""
        total_bits = 0.0
        per_tile_factor = self.grid.num_tiles / self.typical_tiles_delivered
        for cell in range(self.world.num_cells):
            curve = self.rate_model.curve(cell)
            for level in range(1, self.num_levels + 1):
                total_bits += curve.size(level) * per_tile_factor * 1e6 * slot_s
        return total_bits / 8.0 / 1e9

    def video_ids_for(
        self, cell_id: int, tile_indices: Iterable[int], level: int
    ) -> List[int]:
        """Encoded video ids for a tile request (the wire format)."""
        return VideoId.encode_many(self.tiles_for(cell_id, tile_indices, level))


class ServerTileCache:
    """Runtime memory window over the database, per user.

    The window is a centre cell plus a Chebyshev radius: every tile of
    every cell within ``radius_cells`` rows and columns of the centre
    (clipped to the grid) is resident.  The cache stores only that
    clipped rectangle, never the cells in it, so its size does not grow
    with the radius.  Re-centring reports how many cells entered and
    left the window (the "swapping overhead" the paper's buffer avoids
    during steady state); a lookup outside the window is a miss.
    """

    def __init__(self, database: TileDatabase, radius_cells: int = 10) -> None:
        if radius_cells < 0:
            raise ConfigurationError(
                f"radius_cells must be non-negative, got {radius_cells}"
            )
        world = database.world
        self._cols = world.cols
        self._rows = world.rows
        self._radius = radius_cells
        self._center: int = -1
        # Resident rows [r0, r1) and columns [c0, c1); empty until the
        # first move_to.
        self._box: Tuple[int, int, int, int] = (0, 0, 0, 0)
        self.hits: int = 0
        self.misses: int = 0

    @property
    def center_cell(self) -> int:
        return self._center

    def move_to(self, cell_id: int) -> Tuple[int, int]:
        """Re-centre the window on a new cell.

        Returns ``(loaded, evicted)`` cell counts for instrumentation.
        """
        row, col = divmod(cell_id, self._cols)
        r = self._radius
        r0, c0 = max(0, row - r), max(0, col - r)
        r1 = max(r0, min(self._rows, row + r + 1))
        c1 = max(c0, min(self._cols, col + r + 1))
        old_r0, old_r1, old_c0, old_c1 = self._box
        kept = max(0, min(r1, old_r1) - max(r0, old_r0)) * max(
            0, min(c1, old_c1) - max(c0, old_c0)
        )
        self._box = (r0, r1, c0, c1)
        self._center = cell_id
        loaded = (r1 - r0) * (c1 - c0) - kept
        evicted = (old_r1 - old_r0) * (old_c1 - old_c0) - kept
        return loaded, evicted

    def lookup(self, cell_id: int) -> bool:
        """True (hit) when a cell's tiles are resident in memory."""
        # The box lies inside the grid, so a row test also rejects ids
        # outside 0..num_cells-1.
        row, col = divmod(cell_id, self._cols)
        r0, r1, c0, c1 = self._box
        if r0 <= row < r1 and c0 <= col < c1:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def hit_ratio(self) -> float:
        """Fraction of lookups served from memory (0 when none yet)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ClientTileCache:
    """Client-side received-tile store with threshold eviction.

    Section V ("Handling repetitive tiles"): the user holds received
    tiles in RAM up to a device-specific threshold; when full, the
    *oldest* tiles are released and release-ACKs are emitted so the
    server knows it must retransmit them if requested again.
    """

    def __init__(self, capacity_tiles: int) -> None:
        if capacity_tiles < 1:
            raise ConfigurationError(
                f"capacity must be at least one tile, got {capacity_tiles}"
            )
        self._capacity = capacity_tiles
        self._tiles: "OrderedDict[int, None]" = OrderedDict()

    def __contains__(self, video_id: int) -> bool:
        return video_id in self._tiles

    def __len__(self) -> int:
        return len(self._tiles)

    @property
    def capacity(self) -> int:
        return self._capacity

    def insert(self, video_id: int) -> List[int]:
        """Store a tile; returns the video ids released to make room."""
        released: List[int] = []
        if video_id in self._tiles:
            self._tiles.move_to_end(video_id)
            return released
        self._tiles[video_id] = None
        while len(self._tiles) > self._capacity:
            old_id, _ = self._tiles.popitem(last=False)
            released.append(old_id)
        return released

    def release_all(self) -> List[int]:
        """Drop everything (e.g., scene change); returns released ids."""
        released = list(self._tiles.keys())
        self._tiles.clear()
        return released

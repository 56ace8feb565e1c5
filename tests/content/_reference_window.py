"""Reference copy of the set-based server tile window.

This is ``ServerTileCache`` as it was written with an explicit ``set``
of resident cell ids, rebuilt from ``GridWorld.cells_within`` on every
move.  It is kept verbatim so the arithmetic window in
:mod:`repro.content.database` can be checked step for step against
it.  It lives under ``tests/`` only and is never imported by the
package.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.content.database import TileDatabase
from repro.errors import ConfigurationError


class ReferenceTileWindow:
    """Runtime memory window over the database, per user.

    The cache admits every tile of every cell within ``radius_cells``
    of the user's current cell.  Moving shifts the window: cells that
    fall out are evicted, new cells are loaded (counted as misses, the
    "swapping overhead" the paper's buffer avoids during steady state).
    """

    def __init__(self, database: TileDatabase, radius_cells: int = 10) -> None:
        if radius_cells < 0:
            raise ConfigurationError(
                f"radius_cells must be non-negative, got {radius_cells}"
            )
        self._db = database
        self._radius = radius_cells
        self._window: Set[int] = set()
        self._center: int = -1
        self.hits: int = 0
        self.misses: int = 0

    @property
    def center_cell(self) -> int:
        return self._center

    @property
    def cached_cells(self) -> Set[int]:
        return set(self._window)

    def move_to(self, cell_id: int) -> Tuple[int, int]:
        """Re-centre the window on a new cell.

        Returns ``(loaded, evicted)`` cell counts for instrumentation.
        """
        new_window = set(self._db.world.cells_within(cell_id, self._radius))
        loaded = len(new_window - self._window)
        evicted = len(self._window - new_window)
        self._window = new_window
        self._center = cell_id
        return loaded, evicted

    def lookup(self, cell_id: int) -> bool:
        """True (hit) when a cell's tiles are resident in memory."""
        if cell_id in self._window:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def hit_ratio(self) -> float:
        """Fraction of lookups served from memory (0 when none yet)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

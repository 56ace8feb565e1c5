"""The arithmetic tile window equals the set-based reference, step for step.

Every step compares the ``(loaded, evicted)`` counts of ``move_to``,
the result of ``lookup``, the hit and miss counters and the centre.
On the small grids the whole resident window is compared too, probed
on a copy so the counters under test are not disturbed.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from repro.content.database import ServerTileCache, TileDatabase
from repro.content.rate import RateModel
from repro.content.tiles import GridWorld, TileGrid
from tests.content._reference_window import ReferenceTileWindow
from tests.system.test_server import complete, make_server, pose

SEEDS = range(4)
STEPS = 400
#: (cols, rows) of each grid; the last is the serving world (160 x 160).
GRIDS = {
    "10x10": GridWorld(0.0, 1.0, 0.0, 1.0, cell_size=0.1),
    "13x7": GridWorld(0.0, 1.3, 0.0, 0.7, cell_size=0.1),
    "1x9": GridWorld(0.0, 0.1, 0.0, 0.9, cell_size=0.1),
    "160x160": GridWorld(0.0, 8.0, 0.0, 8.0, cell_size=0.05),
}
#: 0 is a one-cell window; 200 is wider than every grid above.
RADII = (0, 1, 3, 10, 40, 200)
#: Random walks skip the widest window on the serving world, where the
#: reference rebuilds a 25,600-id set per step; the corner test keeps it.
CASES = [
    (grid, radius)
    for grid in sorted(GRIDS)
    for radius in RADII
    if not (grid == "160x160" and radius == 200)
]


def _database(world):
    return TileDatabase(world, TileGrid(), RateModel(seed=0))


def _resident(cache, world):
    """Every id the window holds, probed on a copy of the cache."""
    probe = copy.copy(cache)
    return {c for c in range(world.num_cells) if probe.lookup(c)}


def _edge_cells(world):
    cols, rows = world.cols, world.rows
    last = world.num_cells - 1
    corners = [0, cols - 1, last - cols + 1, last]
    middle_row = (rows // 2) * cols
    edges = [cols // 2, middle_row, middle_row + cols - 1, last - cols // 2]
    return corners + edges


def _out_of_range(world):
    n = world.num_cells
    return [-1, -world.cols, -n, n, n + 1, n + world.cols, 10 * n]


def _check(cache, ref, world, full):
    assert cache.center_cell == ref.center_cell
    assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
    if full:
        assert _resident(cache, world) == ref.cached_cells


def _drive(cache, ref, world, rng, steps, full):
    cols, rows = world.cols, world.rows
    edge = _edge_cells(world)
    outside = _out_of_range(world)
    row, col = divmod(int(rng.integers(world.num_cells)), cols)
    for _ in range(steps):
        kind = rng.random()
        if kind < 0.6:
            # A walk: a few cells in any direction, clipped to the grid.
            row = min(max(row + int(rng.integers(-3, 4)), 0), rows - 1)
            col = min(max(col + int(rng.integers(-3, 4)), 0), cols - 1)
            cell = row * cols + col
        elif kind < 0.8:
            cell = int(rng.integers(world.num_cells))  # a jump
        else:
            cell = edge[int(rng.integers(len(edge)))]
        row, col = divmod(cell, cols)
        probe = cell if rng.random() < 0.5 else int(rng.integers(world.num_cells))
        assert cache.lookup(probe) == ref.lookup(probe)
        assert cache.move_to(cell) == ref.move_to(cell)
        _check(cache, ref, world, full)
        stray = outside[int(rng.integers(len(outside)))]
        assert cache.lookup(stray) is ref.lookup(stray) is False
        _check(cache, ref, world, full)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("grid,radius", CASES)
def test_window_matches_reference(grid, radius, seed):
    world = GRIDS[grid]
    database = _database(world)
    cache = ServerTileCache(database, radius_cells=radius)
    ref = ReferenceTileWindow(database, radius_cells=radius)
    # Before the first move the window is empty: every lookup misses.
    for cell in _edge_cells(world) + _out_of_range(world):
        assert cache.lookup(cell) is ref.lookup(cell) is False
    _check(cache, ref, world, full=world.num_cells <= 200)
    rng = np.random.default_rng((seed, radius))
    _drive(cache, ref, world, rng, STEPS, full=world.num_cells <= 200)
    assert cache.hit_ratio() == ref.hit_ratio()


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_every_edge_and_corner_centre(grid):
    world = GRIDS[grid]
    database = _database(world)
    for radius in RADII:
        cache = ServerTileCache(database, radius_cells=radius)
        ref = ReferenceTileWindow(database, radius_cells=radius)
        for cell in _edge_cells(world) + _edge_cells(world)[::-1]:
            assert cache.move_to(cell) == ref.move_to(cell)
            _check(cache, ref, world, full=True)


@pytest.mark.parametrize("seed", SEEDS)
def test_export_import_restores_the_window(seed):
    """A seat moved by export_seat/import_seat keeps its window.

    ``import_seat`` re-centres a fresh cache and then restores the
    counters; the reference replays the same restore.
    """
    rng = np.random.default_rng(seed)
    source = make_server(cache_radius_cells=4)
    for _ in range(30):
        for user in range(2):
            source.observe_pose(
                user, pose(x=float(rng.uniform(1, 7)), y=float(rng.uniform(1, 7)))
            )
        complete(source, source.plan_slot())
    state = source.export_seat(1)
    target = make_server(cache_radius_cells=4)
    target.import_seat(0, state)
    restored = target._tile_caches[0]
    moved = source._tile_caches[1]
    assert restored.center_cell == moved.center_cell == state["cache_center_cell"]
    assert (restored.hits, restored.misses) == (moved.hits, moved.misses)

    world = target.database.world
    ref = ReferenceTileWindow(target.database, radius_cells=4)
    ref.move_to(state["cache_center_cell"])
    ref.hits, ref.misses = state["cache_hits"], state["cache_misses"]
    _check(restored, ref, world, full=True)
    _drive(restored, ref, world, rng, 60, full=False)
    assert target.export_seat(0)["cache_hits"] == ref.hits


def test_window_memory_is_constant():
    """1,000 moves and lookups leave the window's allocations flat."""
    world = GRIDS["160x160"]
    cache = ServerTileCache(_database(world), radius_cells=10)
    rng = np.random.default_rng(0)
    cells = [int(c) for c in rng.integers(world.num_cells, size=1000)]
    cache.move_to(cells[0])
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for cell in cells:
            cache.lookup(cell)
            cache.move_to(cell)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    growth = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert growth < 1024

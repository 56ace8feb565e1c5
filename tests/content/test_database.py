"""Tests for the tile database and the two runtime caches."""

import pytest

from repro.content.database import ClientTileCache, ServerTileCache, TileDatabase
from repro.content.rate import RateModel
from repro.content.tiles import GridWorld, TileGrid, TileKey
from repro.errors import ConfigurationError


@pytest.fixture
def database():
    world = GridWorld(0.0, 1.0, 0.0, 1.0, cell_size=0.1)
    return TileDatabase(world, TileGrid(), RateModel(seed=0))


class TestTileDatabase:
    def test_tile_rate_positive_and_increasing_in_level(self, database):
        rates = [
            database.tile_rate_mbps(TileKey(5, 0, level)) for level in range(1, 7)
        ]
        assert all(r > 0 for r in rates)
        assert rates == sorted(rates)

    def test_tile_rate_uses_calibration(self, database):
        key = TileKey(5, 0, 3)
        curve = database.rate_model.curve(5)
        expected = curve.size(3) / database.typical_tiles_delivered
        assert database.tile_rate_mbps(key) == pytest.approx(expected)

    def test_typical_delivery_matches_nominal_curve(self, database):
        """4 tiles at one level cost exactly the nominal f^R(q)."""
        curve = database.rate_model.curve(7)
        total = sum(
            database.tile_rate_mbps(TileKey(7, t, 4)) for t in range(4)
        )
        assert total == pytest.approx(curve.size(4))

    def test_tile_rate_rejects_bad_tile_index(self, database):
        with pytest.raises(ConfigurationError):
            database.tile_rate_mbps(TileKey(0, 7, 1))

    def test_tile_size_bits(self, database):
        key = TileKey(0, 0, 2)
        bits = database.tile_size_bits(key, slot_s=1.0 / 60.0)
        assert bits == pytest.approx(
            database.tile_rate_mbps(key) * 1e6 / 60.0
        )

    def test_tiles_for_sorts_and_dedups(self, database):
        keys = database.tiles_for(3, [2, 0, 2], level=1)
        assert [k.tile_index for k in keys] == [0, 2]
        assert all(k.cell_id == 3 and k.level == 1 for k in keys)

    def test_rejects_bad_typical_count(self):
        world = GridWorld(0.0, 1.0, 0.0, 1.0, cell_size=0.1)
        with pytest.raises(ConfigurationError):
            TileDatabase(world, typical_tiles_delivered=0.0)

    def test_video_ids_for(self, database):
        ids = database.video_ids_for(3, [0, 1], level=2)
        assert len(ids) == 2
        assert len(set(ids)) == 2


class TestServerTileCache:
    def test_window_follows_user(self, database):
        cache = ServerTileCache(database, radius_cells=1)
        center = database.world.cell_of(0.55, 0.55)
        loaded, evicted = cache.move_to(center)
        assert loaded == 9
        assert evicted == 0
        assert cache.center_cell == center

    def test_incremental_move_loads_only_new_cells(self, database):
        cache = ServerTileCache(database, radius_cells=1)
        cache.move_to(database.world.cell_of(0.55, 0.55))
        loaded, evicted = cache.move_to(database.world.cell_of(0.65, 0.55))
        assert loaded == 3
        assert evicted == 3

    def test_lookup_hits_and_misses(self, database):
        cache = ServerTileCache(database, radius_cells=1)
        center = database.world.cell_of(0.55, 0.55)
        cache.move_to(center)
        assert cache.lookup(center)
        far = database.world.cell_of(0.05, 0.05)
        assert not cache.lookup(far)
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_ratio() == pytest.approx(0.5)

    def test_hit_ratio_empty(self, database):
        cache = ServerTileCache(database)
        assert cache.hit_ratio() == 0.0

    def test_rejects_negative_radius(self, database):
        with pytest.raises(ConfigurationError):
            ServerTileCache(database, radius_cells=-1)


class TestClientTileCache:
    def test_insert_and_contains(self):
        cache = ClientTileCache(capacity_tiles=4)
        assert cache.insert(100) == []
        assert 100 in cache
        assert len(cache) == 1

    def test_eviction_releases_oldest(self):
        cache = ClientTileCache(capacity_tiles=2)
        cache.insert(1)
        cache.insert(2)
        released = cache.insert(3)
        assert released == [1]
        assert 1 not in cache
        assert 2 in cache and 3 in cache

    def test_reinsert_refreshes_recency(self):
        cache = ClientTileCache(capacity_tiles=2)
        cache.insert(1)
        cache.insert(2)
        cache.insert(1)  # refresh 1 -> 2 becomes oldest
        released = cache.insert(3)
        assert released == [2]

    def test_reinsert_returns_no_release(self):
        cache = ClientTileCache(capacity_tiles=2)
        cache.insert(1)
        assert cache.insert(1) == []
        assert len(cache) == 1

    def test_release_all(self):
        cache = ClientTileCache(capacity_tiles=4)
        for vid in (1, 2, 3):
            cache.insert(vid)
        released = cache.release_all()
        assert sorted(released) == [1, 2, 3]
        assert len(cache) == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            ClientTileCache(capacity_tiles=0)

"""The serving planner selects every seat's tiles in one call.

The edge server hands all live seats' predicted view directions to
``CoverageEvaluator.tiles_to_deliver`` once per slot.  Counting calls
(not timing them) pins that design: a return to one tile query per
seat fails here on any machine.
"""

import asyncio
from collections import Counter

from repro.content.database import TileDatabase
from repro.content.projection import FieldOfView
from repro.content.rate import RateModel
from repro.content.tiles import GridWorld, TileGrid
from repro.core.allocation import DensityValueGreedyAllocator
from repro.core.qoe import QoEWeights
from repro.prediction.fov import CoverageEvaluator
from repro.prediction.pose import Pose
from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig
from repro.serve.mux import run_serve_and_mux_fleet
from repro.system.server import EdgeServer


def _counting(monkeypatch, name, calls, seen=None):
    """Count ``name`` calls per evaluator instance (and record args)."""
    original = getattr(CoverageEvaluator, name)

    def wrapper(self, *args, **kwargs):
        calls.setdefault(id(self), Counter())[name] += 1
        if seen is not None:
            seen.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CoverageEvaluator, name, wrapper)


def test_lockstep_loopback_selects_tiles_once_per_planned_slot(monkeypatch):
    calls = {}
    _counting(monkeypatch, "tiles_to_deliver", calls)
    _counting(monkeypatch, "evaluate", calls)
    serve_config = serve_setup1(
        max_users=8, duration_slots=61, seed=0, expect_clients=8,
        lockstep=True,
    )
    result, fleet = asyncio.run(
        run_serve_and_mux_fleet(
            serve_config, LoadGenConfig(num_clients=8, seed=0)
        )
    )
    assert result.slots == 60
    assert len(fleet.admitted) == 8
    # The server's evaluator selects tiles once per slot and never
    # scores; each phone scores its own frames on its own evaluator.
    planners = [c for c in calls.values() if c["tiles_to_deliver"]]
    phones = [c for c in calls.values() if not c["tiles_to_deliver"]]
    assert planners == [Counter(tiles_to_deliver=result.slots)]
    assert len(phones) == 8
    assert all(c["evaluate"] > 0 for c in phones)


def test_single_observation_selects_tiles_from_the_observed_pose(monkeypatch):
    # Rebuilding this pose from its row would wrap yaw 180.0 to
    # -180.0: the planner must select tiles from the observed row.
    observed = Pose(4.0, 4.0, 1.6, -180.0 - 2.0 ** -45, 0.0)
    rebuilt = Pose.from_vector(observed.as_vector())
    assert rebuilt.yaw != observed.yaw
    world = GridWorld(0.0, 8.0, 0.0, 8.0, cell_size=0.05)
    grid = TileGrid()
    server = EdgeServer(
        2,
        DensityValueGreedyAllocator(),
        QoEWeights.system_defaults(),
        TileDatabase(world, grid, RateModel(level_ratio=1.25, seed=0)),
        CoverageEvaluator(world, grid, FieldOfView(), margin_deg=15.0),
        server_budget_mbps=400.0,
    )
    calls = {}
    seen = []
    _counting(monkeypatch, "tiles_to_deliver", calls, seen)
    _counting(monkeypatch, "evaluate", calls)
    server.observe_pose(1, observed.as_vector())
    plan = server.plan_slot()
    assert calls == {id(server.coverage): Counter(tiles_to_deliver=1)}
    # Only the live seat is asked about, with the observed direction.
    [(yaws, pitches)] = seen
    assert list(yaws) == [observed.yaw]
    assert list(pitches) == [observed.pitch]
    assert plan.users[0].tile_indices == ()
    assert plan.users[1].predicted_pose == observed.as_vector()
    assert len(plan.users[1].tile_indices) > 0

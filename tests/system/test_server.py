"""Tests for the edge server planner."""

import json
import math

import numpy as np
import pytest

from repro.content.database import TileDatabase
from repro.content.projection import FieldOfView
from repro.content.rate import RateModel
from repro.content.tiles import GridWorld, TileGrid, VideoId
from repro.core.allocation import DensityValueGreedyAllocator
from repro.core.qoe import QoEWeights
from repro.errors import ConfigurationError
from repro.prediction.fov import CoverageEvaluator
from repro.prediction.pose import Pose
from repro.system.server import EdgeServer


def make_server(num_users=2, refresh=1, **kwargs):
    world = GridWorld(0.0, 8.0, 0.0, 8.0, cell_size=0.05)
    grid = TileGrid()
    database = TileDatabase(world, grid, RateModel(level_ratio=1.25, seed=0))
    coverage = CoverageEvaluator(world, grid, FieldOfView(), margin_deg=15.0)
    return EdgeServer(
        num_users,
        DensityValueGreedyAllocator(),
        QoEWeights.system_defaults(),
        database,
        coverage,
        server_budget_mbps=400.0,
        content_refresh_slots=refresh,
        **kwargs,
    )


def pose(x=4.0, y=4.0, yaw=0.0):
    return Pose(x, y, 1.6, yaw, 0.0)


def complete(server, plan, lost=(), achieved=55.0):
    """Helper: acknowledge a plan as fully delivered."""
    n = len(plan.users)
    delivered = []
    for user_plan in plan.users:
        ids = [VideoId.encode(k) for k in user_plan.missing_keys]
        delivered.append([i for i in ids if i not in lost])
    server.complete_slot(
        plan,
        indicators=[1 if u.level > 0 else 0 for u in plan.users],
        delays_slots=[0.5 if u.level > 0 else 0.0 for u in plan.users],
        achieved_mbps=[achieved] * n,
        delivered_ids=delivered,
        released_ids=[[] for _ in range(n)],
    )


class TestEdgeServer:
    def test_plans_skip_before_any_pose(self):
        server = make_server()
        plan = server.plan_slot()
        assert plan.levels == [0, 0]
        assert plan.demands_mbps == [0.0, 0.0]

    def test_plans_delivery_after_pose(self):
        server = make_server()
        for u in range(2):
            server.observe_pose(u, pose())
        plan = server.plan_slot()
        assert all(level >= 1 for level in plan.levels)
        assert all(len(u.missing_keys) > 0 for u in plan.users)
        assert all(u.demand_mbps > 0 for u in plan.users)

    def test_demand_matches_missing_tiles(self):
        server = make_server()
        server.observe_pose(0, pose())
        server.observe_pose(1, pose())
        plan = server.plan_slot()
        for user_plan in plan.users:
            expected = sum(user_plan.missing_bits) / 1e6 / server.slot_s
            assert user_plan.demand_mbps == pytest.approx(expected)

    def test_dedup_within_static_epoch(self):
        """With a static scene, the second slot needs nothing new."""
        server = make_server(refresh=0)
        for u in range(2):
            server.observe_pose(u, pose())
        plan1 = server.plan_slot()
        complete(server, plan1)
        for u in range(2):
            server.observe_pose(u, pose())
        plan2 = server.plan_slot()
        # Same pose, same level, delivered tiles remembered.
        for u in range(2):
            if plan2.users[u].level == plan1.users[u].level:
                assert plan2.users[u].demand_mbps == pytest.approx(0.0)

    def test_refresh_invalidates_dedup(self):
        """With refresh=1 every slot transmits fresh content."""
        server = make_server(refresh=1)
        for u in range(2):
            server.observe_pose(u, pose())
        plan1 = server.plan_slot()
        complete(server, plan1)
        for u in range(2):
            server.observe_pose(u, pose())
        plan2 = server.plan_slot()
        for u in range(2):
            if plan2.users[u].level > 0:
                assert plan2.users[u].demand_mbps > 0.0

    def test_lost_tiles_not_marked_delivered(self):
        server = make_server(refresh=0)
        server.observe_pose(0, pose())
        server.observe_pose(1, pose())
        plan = server.plan_slot()
        lost_id = VideoId.encode(plan.users[0].missing_keys[0])
        complete(server, plan, lost={lost_id})
        assert lost_id not in server._delivered[0]  # noqa: SLF001

    def test_release_acks_forget_tiles(self):
        server = make_server(refresh=0)
        server.observe_pose(0, pose())
        server.observe_pose(1, pose())
        plan = server.plan_slot()
        complete(server, plan)
        some_id = VideoId.encode(plan.users[0].missing_keys[0])
        server.acknowledge_release(0, [some_id])
        assert some_id not in server._delivered[0]  # noqa: SLF001

    def test_cap_estimate_ema_on_active_slots(self):
        server = make_server(initial_cap_mbps=60.0, ema_alpha=0.5)
        server.observe_pose(0, pose())
        server.observe_pose(1, pose())
        plan = server.plan_slot()
        complete(server, plan, achieved=40.0)
        # EMA moved halfway from 60 toward 40.
        assert server._cap_estimates[0] == pytest.approx(50.0)  # noqa: SLF001

    def test_cap_probe_on_idle_slots(self):
        server = make_server(initial_cap_mbps=60.0, cap_probe_gain=1.02)
        plan = server.plan_slot()  # everything skipped -> idle
        complete(server, plan, achieved=0.0)
        assert server._cap_estimates[0] == pytest.approx(61.2)  # noqa: SLF001

    def test_estimated_cap_discounted(self):
        server = make_server(initial_cap_mbps=60.0, safety_factor=0.9)
        assert server.estimated_cap(0) == pytest.approx(54.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_server(num_users=0)
        with pytest.raises(ConfigurationError):
            make_server(cap_probe_gain=0.5)
        with pytest.raises(ConfigurationError):
            make_server(refresh=-1)


class TestServerTileCacheWindow:
    def test_steady_movement_is_hits(self):
        """Slow movement keeps the memory window warm (Section V)."""
        server = make_server()
        server.observe_pose(0, pose())
        server.observe_pose(1, pose())
        for step in range(30):
            plan = server.plan_slot()
            complete(server, plan)
            for u in range(2):
                # 1 cm per slot: well inside the 50 cm window.
                server.observe_pose(u, pose(x=4.0 + 0.01 * step))
        # Only the very first lookup can miss.
        assert server.cache_hit_ratio(0) > 0.9

    def test_teleport_misses_once(self):
        server = make_server(cache_miss_penalty_s=0.01)
        server.observe_pose(0, pose(x=1.0))
        server.observe_pose(1, pose(x=1.0))
        plan = server.plan_slot()
        complete(server, plan)
        assert plan.users[0].startup_delay_s > 0  # cold cache
        # Teleport across the room: outside the window -> miss again.
        for u in range(2):
            server.observe_pose(u, pose(x=7.0))
            server.observe_pose(u, pose(x=7.0))
        plan2 = server.plan_slot()
        assert plan2.users[0].startup_delay_s > 0

    def test_warm_cache_no_startup_delay(self):
        server = make_server()
        server.observe_pose(0, pose())
        server.observe_pose(1, pose())
        first = server.plan_slot()
        complete(server, first)
        server.observe_pose(0, pose())
        server.observe_pose(1, pose())
        second = server.plan_slot()
        assert second.users[0].startup_delay_s == 0.0

    def test_negative_penalty_rejected(self):
        with pytest.raises(ConfigurationError):
            make_server(cache_miss_penalty_s=-0.001)


class TestSeatRateCurves:
    """Each seat's held rate curve is rebuilt exactly when its cell moves."""

    def _plan_rows(self, plan):
        return [
            (p.cell_id, p.level, p.nominal_rate_mbps, p.missing_bits)
            for p in plan.users
        ]

    def test_held_curves_plan_like_fresh_ones(self, monkeypatch):
        held, fresh = make_server(), make_server()
        model = held.database.rate_model
        calls = []
        build = model.curve
        monkeypatch.setattr(model, "curve", lambda c: calls.append(c) or build(c))
        last_cell = [None, None]
        moves = 0
        for step in range(40):
            for server in (held, fresh):
                for u in range(2):
                    # 2 and 4 cm per slot across 5 cm cells: some slots
                    # change cell, most do not.
                    server.observe_pose(u, pose(x=2.0 + 0.02 * (u + 1) * step))
            # The reference forgets every held curve before planning.
            fresh._seat_curves = [None] * fresh.num_users
            ours, reference = held.plan_slot(), fresh.plan_slot()
            assert self._plan_rows(ours) == self._plan_rows(reference)
            for u, user_plan in enumerate(ours.users):
                moves += user_plan.cell_id != last_cell[u]
                last_cell[u] = user_plan.cell_id
            complete(held, ours)
            complete(fresh, reference)
        assert 10 < moves < 80
        assert len(calls) == moves


class TestBatchedMotionState:
    """Seat motion state lives in one batched predictor."""

    @pytest.mark.parametrize("fill", [0, 1, 4, 10, 23])
    def test_export_import_round_trips_every_window_fill(self, fill):
        # 0 (empty), 1 (single pose), 4 (partial), 10 (full) and 23
        # (the ring has wrapped) observations in a window of 10.
        rng = np.random.default_rng(fill)

        def random_pose():
            return Pose(
                float(rng.uniform(1, 7)), float(rng.uniform(1, 7)), 1.6,
                float(rng.uniform(-180, 180)), float(rng.uniform(-60, 60)),
            )

        source = make_server(num_users=1, refresh=0)
        for _ in range(fill):
            source.observe_pose(0, random_pose())
            complete(source, source.plan_slot())
        state = source.export_seat(0)
        assert len(state["pose_window"]) == min(fill, 10)
        target = make_server(num_users=1, refresh=0)
        target.import_seat(0, state)
        assert target.export_seat(0) == state
        for _ in range(12):
            ours, theirs = source.plan_slot(), target.plan_slot()
            assert ours.users == theirs.users
            complete(source, ours)
            complete(target, theirs)
            next_pose = random_pose()
            source.observe_pose(0, next_pose)
            target.observe_pose(0, next_pose)

    def test_single_pose_window_plans_with_that_pose(self):
        # Rebuilding this pose from its vector would wrap yaw 180.0
        # to -180.0: the planner must hand back the observed object.
        observed = Pose(4.0, 4.0, 1.6, -180.0 - 2.0 ** -45, 0.0)
        assert Pose.from_vector(observed.as_vector()) != observed
        server = make_server(num_users=2)
        server.observe_pose(1, observed)
        plan = server.plan_slot()
        assert plan.users[0].predicted_pose is None
        assert plan.users[1].predicted_pose is observed


class TestImportSeatRejectsNonFinite:
    """A handoff blob is JSON, which admits NaN and Infinity.

    Each bad value below used to be accepted and then broke the next
    ``plan_slot`` for the whole shard (or planned one seat without a
    capacity limit); ``import_seat`` must refuse it up front.
    """

    def _state(self, **changes):
        source = make_server(num_users=1, refresh=0)
        for step in range(3):
            source.observe_pose(0, pose(x=4.0 + 0.01 * step, yaw=10.0 * step))
            complete(source, source.plan_slot())
        state = source.export_seat(0)
        state.update(changes)
        # Through the wire format: json carries NaN/Infinity as-is.
        return json.loads(json.dumps(state))

    def _assert_rejected(self, state):
        target = make_server(num_users=2)
        target.observe_pose(0, pose())
        with pytest.raises(ConfigurationError):
            target.import_seat(1, state)
        # The shard keeps planning, and the target seat stayed empty.
        plan = target.plan_slot()
        assert plan.users[0].level > 0
        assert plan.users[1].predicted_pose is None
        assert target.export_seat(1)["pose_window"] == []

    @pytest.mark.parametrize("axis", [0, 3], ids=["x", "yaw"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_pose_window_rejected(self, axis, value):
        state = self._state()
        state["pose_window"][1][axis] = value
        self._assert_rejected(json.loads(json.dumps(state)))

    def test_negative_cap_rejected(self):
        self._assert_rejected(self._state(cap_estimate_mbps=-5.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_cap_rejected(self, value):
        self._assert_rejected(self._state(cap_estimate_mbps=value))

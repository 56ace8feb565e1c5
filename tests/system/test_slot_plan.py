"""Tests for the SlotPlan/UserPlan value objects."""

from repro.system.server import SlotPlan, UserPlan


def user_plan(level=3, demand=25.0):
    return UserPlan(
        level=level,
        predicted_pose=(1.0, 1.0, 1.6, 0.0, 0.0, 0.0),
        cell_id=7,
        tile_indices=(0, 1, 2, 3),
        missing_keys=[],
        missing_bits=[],
        demand_mbps=demand,
        nominal_rate_mbps=26.0,
    )


class TestSlotPlan:
    def test_levels_property(self):
        plan = SlotPlan(slot=4, users=[user_plan(2), user_plan(5)])
        assert plan.levels == [2, 5]

    def test_demands_property(self):
        plan = SlotPlan(slot=0, users=[user_plan(demand=10.0), user_plan(demand=0.0)])
        assert plan.demands_mbps == [10.0, 0.0]

    def test_default_startup_delay(self):
        assert user_plan().startup_delay_s == 0.0

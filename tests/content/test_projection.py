"""Tests for FoV geometry on the equirectangular panorama."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.content.projection import (
    FieldOfView,
    angular_difference_deg,
    fov_solid_angle_fraction,
    wrap_angle_deg,
)
from repro.errors import ConfigurationError


class TestAngles:
    def test_wrap_identity_in_range(self):
        assert wrap_angle_deg(0.0) == 0.0
        assert wrap_angle_deg(-179.0) == -179.0
        assert wrap_angle_deg(179.0) == 179.0

    def test_wrap_at_boundary(self):
        assert wrap_angle_deg(180.0) == -180.0
        assert wrap_angle_deg(-180.0) == -180.0

    def test_wrap_multiple_turns(self):
        assert wrap_angle_deg(720.0 + 10.0) == pytest.approx(10.0)
        assert wrap_angle_deg(-370.0) == pytest.approx(-10.0)

    @given(st.floats(-10_000, 10_000, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_wrap_always_in_range(self, angle):
        wrapped = wrap_angle_deg(angle)
        assert -180.0 <= wrapped < 180.0

    def test_angular_difference(self):
        assert angular_difference_deg(170.0, -170.0) == pytest.approx(20.0)
        assert angular_difference_deg(10.0, 350.0) == pytest.approx(20.0)
        assert angular_difference_deg(0.0, 180.0) == pytest.approx(180.0)


class TestFieldOfView:
    def test_defaults(self):
        fov = FieldOfView()
        assert fov.horizontal_deg == 90.0
        assert fov.vertical_deg == 90.0

    def test_rejects_bad_extents(self):
        with pytest.raises(ConfigurationError):
            FieldOfView(horizontal_deg=0.0)
        with pytest.raises(ConfigurationError):
            FieldOfView(horizontal_deg=400.0)
        with pytest.raises(ConfigurationError):
            FieldOfView(vertical_deg=200.0)

    def test_margin_expands_both_axes(self):
        enlarged = FieldOfView().with_margin(15.0)
        assert enlarged.horizontal_deg == 120.0
        assert enlarged.vertical_deg == 120.0

    def test_margin_saturates(self):
        enlarged = FieldOfView(350.0, 170.0).with_margin(30.0)
        assert enlarged.horizontal_deg == 360.0
        assert enlarged.vertical_deg == 180.0

    def test_margin_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            FieldOfView().with_margin(-1.0)

    def test_pitch_range_clamped_at_poles(self):
        fov = FieldOfView()
        lo, hi = fov.pitch_range(80.0)
        assert hi == 90.0
        assert lo == pytest.approx(35.0)

    def test_contains(self):
        fov = FieldOfView()
        assert fov.contains(10.0, 10.0, center_yaw=0.0, center_pitch=0.0)
        assert not fov.contains(50.0, 0.0, center_yaw=0.0, center_pitch=0.0)
        # Across the wrap boundary.
        assert fov.contains(-175.0, 0.0, center_yaw=175.0, center_pitch=0.0)


class TestSolidAngle:
    def test_paper_fov_fraction(self):
        """90x90 FoV covers ~18-20% of the sphere (Section II)."""
        fraction = fov_solid_angle_fraction(FieldOfView())
        assert 0.15 < fraction < 0.22

    def test_full_sphere(self):
        fraction = fov_solid_angle_fraction(FieldOfView(360.0, 180.0))
        assert fraction == pytest.approx(1.0)

    def test_monotone_in_extent(self):
        small = fov_solid_angle_fraction(FieldOfView(60.0, 60.0))
        large = fov_solid_angle_fraction(FieldOfView(120.0, 120.0))
        assert large > small

"""Tests for the convex size-vs-quality model (Fig. 1a)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.content.rate import (
    QualityRateCurve,
    RateModel,
    delay_slope_check,
    is_convex_increasing,
    storage_footprint_gb,
)
from repro.errors import ConfigurationError


class TestQualityRateCurve:
    def test_valid_curve(self):
        curve = QualityRateCurve((1.0, 2.0, 4.0))
        assert curve.num_levels == 3
        assert curve.size(1) == 1.0
        assert curve.size(3) == 4.0

    def test_level_zero_is_free(self):
        curve = QualityRateCurve((1.0, 2.0))
        assert curve.size(0) == 0.0

    def test_rejects_out_of_range_level(self):
        curve = QualityRateCurve((1.0, 2.0))
        with pytest.raises(ConfigurationError):
            curve.size(3)
        with pytest.raises(ConfigurationError):
            curve.size(-1)

    def test_rejects_non_increasing(self):
        with pytest.raises(ConfigurationError):
            QualityRateCurve((2.0, 2.0))
        with pytest.raises(ConfigurationError):
            QualityRateCurve((2.0, 1.0))

    def test_rejects_concave(self):
        # Increments 3, 1: decreasing -> not convex.
        with pytest.raises(ConfigurationError):
            QualityRateCurve((1.0, 4.0, 5.0))

    def test_rejects_non_positive_base(self):
        with pytest.raises(ConfigurationError):
            QualityRateCurve((0.0, 1.0))

    def test_max_level_within(self):
        curve = QualityRateCurve((1.0, 2.0, 4.0))
        assert curve.max_level_within(0.5) == 0
        assert curve.max_level_within(2.0) == 2
        assert curve.max_level_within(100.0) == 3


class TestRateModel:
    def test_fig1a_convex_increasing(self, rate_model):
        """The Fig. 1a property for arbitrary contents."""
        for content in (0, 1, 17, 999):
            curve = rate_model.curve(content)
            assert is_convex_increasing(curve.sizes)

    def test_deterministic_per_content(self, rate_model):
        assert rate_model.curve(42).sizes == rate_model.curve(42).sizes
        other_model = RateModel(seed=0)
        assert rate_model.curve(42).sizes == other_model.curve(42).sizes

    def test_different_contents_differ(self, rate_model):
        assert rate_model.curve(1).sizes != rate_model.curve(2).sizes

    def test_seed_changes_curves(self):
        a = RateModel(seed=0).curve(5)
        b = RateModel(seed=1).curve(5)
        assert a.sizes != b.sizes

    def test_medium_level_calibration(self):
        """A nominal content's mid-level sizes average to ~36 Mbps."""
        model = RateModel(content_spread=0.0)
        curve = model.curve(0)
        mid = 0.5 * (curve.size(3) + curve.size(4))
        assert mid == pytest.approx(36.0, rel=1e-6)

    def test_content_spread_bounds(self):
        model = RateModel(content_spread=0.2)
        nominal = model.nominal_base_mbps
        for content in range(50):
            base = model.curve(content).size(1)
            assert 0.8 * nominal - 1e-9 <= base <= 1.2 * nominal + 1e-9

    def test_level_ratio_override(self):
        steep = RateModel(content_spread=0.0)
        flat = RateModel(content_spread=0.0, level_ratio=1.25)
        steep_span = steep.curve(0).size(6) / steep.curve(0).size(1)
        flat_span = flat.curve(0).size(6) / flat.curve(0).size(1)
        assert flat_span < steep_span
        assert flat_span == pytest.approx(1.25 ** 5)

    def test_rejects_bad_level_ratio(self):
        with pytest.raises(ConfigurationError):
            RateModel(level_ratio=1.0)

    def test_rejects_bad_spread(self):
        with pytest.raises(ConfigurationError):
            RateModel(content_spread=1.5)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_every_content_curve_valid(self, content_id):
        model = RateModel(seed=4)
        curve = model.curve(content_id)
        assert is_convex_increasing(curve.sizes)
        assert curve.size(1) > 0


class TestDelayComposition:
    def test_mm1_composition_convex(self, rate_model):
        """d(f(q)) convex along the curve — the Section II assumption."""
        for content in range(10):
            curve = rate_model.curve(content)
            assert delay_slope_check(curve, bandwidth=150.0)


class TestStorageFootprint:
    def test_scales_with_cells(self, rate_model):
        small = storage_footprint_gb(rate_model, num_cells=100)
        large = storage_footprint_gb(rate_model, num_cells=200)
        assert large > small > 0

    def test_zero_cells(self, rate_model):
        assert storage_footprint_gb(rate_model, num_cells=0) == 0.0

    def test_rejects_negative_cells(self, rate_model):
        with pytest.raises(ConfigurationError):
            storage_footprint_gb(rate_model, num_cells=-1)

    def test_paper_scale_footprint(self, rate_model):
        """A paper-scale grid lands in the hundreds-of-GB regime.

        Section VI quotes 171 GB for the Office scene on a 5 cm grid;
        our parametric database should be the same order of magnitude
        for a comparable cell count.
        """
        # An ~8 m x 4 m room at 5 cm granularity ~ 12,800 cells.
        footprint = storage_footprint_gb(rate_model, num_cells=12_800)
        assert 20.0 < footprint < 2000.0

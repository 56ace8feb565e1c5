"""Tests for serving metrics: histograms, deadlines, realized QoE."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.serve.metrics import STAGES, LatencyHistogram, ServingMetrics


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert len(hist) == 0
        assert hist.quantile(0.5) == 0.0
        assert hist.mean() == 0.0
        assert hist.max() == 0.0
        assert hist.fraction_below(1.0) == 1.0

    def test_quantiles_nearest_rank_in_exact_mode(self):
        hist = LatencyHistogram(exact=True)
        for value in (0.004, 0.001, 0.003, 0.002):
            hist.record(value)
        assert hist.quantile(0.0) == pytest.approx(0.001)
        assert hist.quantile(0.5) == pytest.approx(0.003)
        assert hist.quantile(1.0) == pytest.approx(0.004)
        assert hist.max() == pytest.approx(0.004)
        assert hist.mean() == pytest.approx(0.0025)

    def test_bounded_mode_keeps_no_samples(self):
        hist = LatencyHistogram()
        for i in range(10_000):
            hist.record((i % 50) / 10_000.0)
        # Default mode never retains samples — memory is the fixed
        # bucket vector (the fix for the unbounded recorder).
        assert len(hist._samples) == 0
        assert len(hist) == 10_000
        assert hist.mean() == pytest.approx(
            sum((i % 50) / 10_000.0 for i in range(10_000)) / 10_000
        )

    def test_bounded_quantiles_stay_within_observed_range(self):
        hist = LatencyHistogram()
        for value in (0.004, 0.001, 0.003, 0.002):
            hist.record(value)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert 0.001 <= hist.quantile(q) <= 0.004

    def test_fraction_below_is_strict_in_exact_mode(self):
        hist = LatencyHistogram(exact=True)
        for value in (0.001, 0.002, 0.003, 0.004):
            hist.record(value)
        assert hist.fraction_below(0.003) == pytest.approx(0.5)
        assert hist.fraction_below(0.0005) == 0.0
        assert hist.fraction_below(1.0) == 1.0

    def test_sort_cache_survives_interleaved_reads(self):
        hist = LatencyHistogram(exact=True)
        hist.record(0.002)
        assert hist.quantile(1.0) == pytest.approx(0.002)
        hist.record(0.001)
        assert hist.quantile(0.0) == pytest.approx(0.001)

    def test_summary_ms(self):
        hist = LatencyHistogram()
        hist.record(0.010)
        summary = hist.summary_ms()
        assert summary["count"] == 1.0
        assert summary["p50_ms"] == pytest.approx(10.0)
        assert summary["p99_ms"] == pytest.approx(10.0)
        assert summary["max_ms"] == pytest.approx(10.0)

    def test_validation(self):
        hist = LatencyHistogram()
        with pytest.raises(ConfigurationError):
            hist.record(-0.001)
        with pytest.raises(ConfigurationError):
            hist.quantile(1.5)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_latency_rejected(self, exact, value):
        hist = LatencyHistogram(exact=exact)
        hist.record(0.002)
        with pytest.raises(ConfigurationError):
            hist.record(value)
        assert len(hist) == 1
        assert len(hist._samples) == (1 if exact else 0)
        assert hist.mean() == pytest.approx(0.002)
        assert hist.quantile(0.99) == pytest.approx(0.002)


class TestServingMetrics:
    def test_deadline_hit_accounting(self):
        metrics = ServingMetrics(slot_s=0.010)
        metrics.record_slot(0.005)
        metrics.record_slot(0.015)
        metrics.record_slot(0.009)
        # The deadline is exclusive: exactly-on-deadline is a miss.
        metrics.record_slot(0.010)
        assert metrics.slots == 4
        assert metrics.deadline_hits == 2
        assert metrics.deadline_hit_rate == pytest.approx(0.5)

    def test_hit_rate_zero_before_any_slot(self):
        assert ServingMetrics(slot_s=0.010).deadline_hit_rate == 0.0

    def test_record_stage_validates_name(self):
        metrics = ServingMetrics(slot_s=0.010)
        for stage in STAGES:
            metrics.record_stage(stage, 0.001)
        with pytest.raises(ConfigurationError):
            metrics.record_stage("teleport", 0.001)

    def test_record_reject_counts_by_code(self):
        metrics = ServingMetrics(slot_s=0.010)
        metrics.record_reject("capacity")
        metrics.record_reject("capacity")
        metrics.record_reject("version")
        assert metrics.rejects == {"capacity": 2, "version": 1}

    def test_per_user_quality_follows_viewed_convention(self):
        metrics = ServingMetrics(slot_s=0.010)
        # Viewed quality: the level when displayed, 0 otherwise.
        metrics.record_viewed_quality(0, 4)
        metrics.record_viewed_quality(0, 0)
        metrics.record_viewed_quality(1, 3)
        quality = metrics.per_user_quality()
        assert quality == {0: pytest.approx(2.0), 1: pytest.approx(3.0)}

    def test_summary_shape(self):
        metrics = ServingMetrics(slot_s=0.010)
        metrics.record_stage("allocate", 0.002)
        metrics.record_slot(0.006)
        metrics.record_reject("capacity")
        metrics.record_viewed_quality(0, 4)
        summary = metrics.summary()
        assert summary["slots"] == 1
        assert summary["deadline_hit_rate"] == 1.0
        assert summary["slot_deadline_ms"] == pytest.approx(10.0)
        assert set(summary["stage_latency_ms"]) == {"allocate", "slot"}
        assert summary["rejects"] == {"capacity": 1}
        assert summary["per_user_mean_viewed_quality"] == {"0": 4.0}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServingMetrics(slot_s=0.0)

    def test_figures_are_registry_backed_not_parallel_bookkeeping(self):
        metrics = ServingMetrics(slot_s=0.010)
        metrics.record_slot(0.005)
        metrics.record_join()
        metrics.record_reject("capacity")
        page = metrics.registry.render_prometheus()
        assert "repro_serve_slots_total 1" in page
        assert "repro_serve_deadline_hits_total 1" in page
        assert "repro_serve_active_sessions 1" in page
        assert 'repro_serve_rejects_total{code="capacity"} 1' in page
        assert "repro_serve_stage_latency_seconds_bucket" in page

    def test_shared_registry_is_reused(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        metrics = ServingMetrics(slot_s=0.010, registry=registry)
        assert metrics.registry is registry
        metrics.record_slot(0.001)
        assert "repro_serve_slots_total" in registry.render_prometheus()

"""Metrics registry: instruments, rendering, and exposition validity."""

import json
import math

import pytest

from repro.errors import ObservabilityError
from repro.obs.promtext import validate_exposition
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    BucketHistogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("c_total", "help")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total", "help")
        with pytest.raises(ObservabilityError):
            counter.inc(-1.0)

    @pytest.mark.parametrize("amount", [math.nan, math.inf])
    def test_non_finite_increment_rejected(self, amount):
        # A NaN used to pass the ``< 0`` check and made the counter NaN
        # for the rest of the process.
        counter = MetricsRegistry().counter("c_total", "help")
        counter.inc(2.0)
        with pytest.raises(ObservabilityError):
            counter.inc(amount)
        counter.inc()
        assert counter.value == 3.0

    def test_count_is_the_integer_view(self):
        counter = MetricsRegistry().counter("c_total", "help")
        for _ in range(5):
            counter.inc()
        assert counter.count == 5


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g", "help")
        gauge.set(4.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == 3.0


class TestBucketHistogram:
    def test_memory_is_bounded_by_buckets_not_samples(self):
        hist = BucketHistogram((0.001, 0.01, 0.1))
        for i in range(10_000):
            hist.observe((i % 100) / 1000.0)
        # Internal storage is the fixed bucket vector, never samples.
        assert len(hist._counts) == 4
        assert hist.count == 10_000
        assert len(hist) == 10_000

    def test_exact_count_sum_min_max_mean(self):
        hist = BucketHistogram((0.5, 1.0, 2.0))
        for value in (0.1, 0.6, 1.5, 1.5):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(3.7)
        assert hist.min() == pytest.approx(0.1)
        assert hist.max() == pytest.approx(1.5)
        assert hist.mean() == pytest.approx(3.7 / 4)

    def test_le_semantics_boundary_value_lands_in_its_bucket(self):
        hist = BucketHistogram((1.0, 2.0))
        hist.observe(1.0)
        # Cumulative count at le=1.0 must include the boundary sample.
        assert hist.cumulative_counts()[0] == 1

    def test_quantiles_clamped_to_observed_range(self):
        hist = BucketHistogram(DEFAULT_LATENCY_BUCKETS_S)
        for _ in range(100):
            hist.observe(0.004)
        assert hist.quantile(0.0) >= 0.004 - 1e-12
        assert hist.quantile(1.0) <= 0.004 + 1e-12
        assert hist.quantile(0.5) == pytest.approx(0.004, abs=1e-9)

    def test_quantile_interpolates_within_bucket(self):
        hist = BucketHistogram((1.0, 2.0, 4.0))
        for value in (1.1, 1.5, 1.9, 3.0):
            hist.observe(value)
        p50 = hist.quantile(0.5)
        assert 1.0 <= p50 <= 2.0

    def test_empty_histogram_answers_zero(self):
        hist = BucketHistogram((1.0,))
        assert hist.quantile(0.99) == 0.0
        assert hist.mean() == 0.0
        assert hist.min() == 0.0
        assert hist.max() == 0.0
        assert hist.fraction_below(0.5) == 1.0

    def test_fraction_below(self):
        hist = BucketHistogram((1.0, 2.0))
        for value in (0.5, 0.5, 1.5, 1.5):
            hist.observe(value)
        assert hist.fraction_below(0.4) == 0.0
        assert hist.fraction_below(10.0) == 1.0
        mid = hist.fraction_below(1.0)
        assert 0.0 < mid <= 1.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            BucketHistogram(())
        with pytest.raises(ObservabilityError):
            BucketHistogram((2.0, 1.0))
        with pytest.raises(ObservabilityError):
            BucketHistogram((1.0, 1.0))
        with pytest.raises(ObservabilityError):
            BucketHistogram((0.0, 1.0))
        with pytest.raises(ObservabilityError):
            BucketHistogram((1.0, math.inf))

    def test_negative_observation_rejected(self):
        hist = BucketHistogram((1.0,))
        with pytest.raises(ObservabilityError):
            hist.observe(-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_observation_rejected(self, value):
        # A NaN used to pass the ``< 0`` check and made sum and mean()
        # NaN for the rest of the process.
        hist = BucketHistogram((1.0,))
        hist.observe(0.5)
        with pytest.raises(ObservabilityError):
            hist.observe(value)
        assert (hist.count, hist.sum, hist.mean(), hist.max()) == (1, 0.5, 0.5, 0.5)
        assert hist.cumulative_counts() == [1, 1]


class TestFamilies:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help")
        second = registry.counter("x_total", "help")
        assert first is second

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help")
        with pytest.raises(ObservabilityError):
            registry.gauge("x_total", "help")

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter_family("y_total", "help", ("code",))
        with pytest.raises(ObservabilityError):
            registry.counter_family("y_total", "help", ("other",))

    def test_labelled_children_are_distinct_and_cached(self):
        family = MetricsRegistry().counter_family("r_total", "h", ("code",))
        a = family.counter_child(code="a")
        b = family.counter_child(code="b")
        assert a is not b
        assert family.counter_child(code="a") is a

    def test_wrong_label_names_rejected(self):
        family = MetricsRegistry().counter_family("r_total", "h", ("code",))
        with pytest.raises(ObservabilityError):
            family.labels(other="x")

    def test_typed_child_accessors_enforce_kind(self):
        registry = MetricsRegistry()
        counters = registry.counter_family("c_total", "h", ("k",))
        with pytest.raises(ObservabilityError):
            counters.gauge_child(k="x")
        with pytest.raises(ObservabilityError):
            counters.histogram_child(k="x")

    def test_invalid_metric_and_label_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.counter("bad name", "h")
        with pytest.raises(ObservabilityError):
            registry.counter_family("ok_total", "h", ("__reserved",))
        with pytest.raises(ObservabilityError):
            registry.counter_family("ok_total", "h", ("a", "a"))


class TestRendering:
    def _populated_registry(self):
        registry = MetricsRegistry()
        registry.counter("demo_slots_total", "Slots run").inc(3)
        registry.gauge("demo_sessions", "Active sessions").set(2)
        family = registry.counter_family(
            "demo_rejects_total", "Rejections", ("code",)
        )
        family.counter_child(code="capacity").inc()
        hist = registry.histogram(
            "demo_latency_seconds", "Latency", buckets_s=(0.001, 0.01)
        )
        hist.observe(0.0005)
        hist.observe(0.005)
        hist.observe(0.5)
        return registry

    def test_prometheus_exposition_validates(self):
        text = self._populated_registry().render_prometheus()
        summary = validate_exposition(text)
        assert {f for f in summary.families} >= {
            "demo_slots_total",
            "demo_sessions",
            "demo_rejects_total",
            "demo_latency_seconds",
        }
        assert summary.samples > 0

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        text = self._populated_registry().render_prometheus()
        bucket_lines = [
            line for line in text.splitlines()
            if line.startswith("demo_latency_seconds_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)
        assert 'le="+Inf"' in bucket_lines[-1]
        assert counts[-1] == 3
        assert "demo_latency_seconds_sum" in text
        assert "demo_latency_seconds_count 3" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        family = registry.counter_family("esc_total", "h", ("detail",))
        family.counter_child(detail='say "hi"\nback\\slash').inc()
        text = registry.render_prometheus()
        assert '\\"hi\\"' in text
        assert "\\n" in text
        validate_exposition(text)

    def test_empty_registry_renders_empty_page(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_json_snapshot_is_strict_json(self):
        registry = self._populated_registry()
        snapshot = json.loads(registry.render_json())
        names = {f["name"] for f in snapshot["families"]}
        assert "demo_latency_seconds" in names
        hist = next(
            f for f in snapshot["families"]
            if f["name"] == "demo_latency_seconds"
        )
        buckets = hist["metrics"][0]["buckets"]
        # The +Inf edge is serialized as a string, keeping strict JSON.
        assert buckets[-1][0] == "+Inf"
        assert buckets[-1][1] == 3

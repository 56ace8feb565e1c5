"""Central metrics registry: counters, gauges, bounded-bucket histograms.

One :class:`MetricsRegistry` holds every instrument a process exposes
— the serving slot loop, the admission policy, the tracer, the flight
recorder, and the in-process experiment all register here — and
renders the whole set either as Prometheus text exposition (for the
``/metrics`` endpoint) or as one JSON snapshot (for ``/snapshot`` and
offline diffing).  Zero dependencies, bounded memory: histograms keep
a fixed bucket vector plus exact count/sum/min/max, never the samples
themselves.

Instruments are cheap enough for the 1/60 s slot path: a counter
``inc`` is one float add, a histogram ``observe`` one bisect into a
static bucket list.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ObservabilityError
from repro.units import SLOT_DURATION_S

#: Valid Prometheus metric and label names.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): log-ish spacing from 50 us to
#: 10 s, dense around the 1/60 s slot deadline.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    SLOT_DURATION_S, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelValues = Tuple[str, ...]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ObservabilityError(f"invalid metric name {name!r}")
    return name


def _check_labels(label_names: Sequence[str]) -> Tuple[str, ...]:
    for label in label_names:
        if not _LABEL_RE.match(label) or label.startswith("__"):
            raise ObservabilityError(f"invalid label name {label!r}")
    if len(set(label_names)) != len(label_names):
        raise ObservabilityError(f"duplicate label names in {label_names!r}")
    return tuple(label_names)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_label_set(
    label_names: Sequence[str], values: Sequence[str], extra: str = ""
) -> str:
    """Render ``{a="x",b="y"}`` (empty string for no labels)."""
    parts = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(label_names, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """Monotonically increasing count (float-valued, like Prometheus)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not 0 <= amount < math.inf:  # False for NaN
            raise ObservabilityError(
                f"counter increments must be finite and >= 0, got {amount}"
            )
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    @property
    def count(self) -> int:
        """The value as an int (for counters that only ever ``inc(1)``)."""
        return int(self._value)


class Gauge:
    """A value that can go up and down (queue depths, last-seen slots)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class BucketHistogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    Memory is ``O(len(buckets))`` regardless of how many samples are
    observed — the fix for the unbounded store-and-sort recorder the
    serving layer started with.  Quantiles are answered by linear
    interpolation inside the owning bucket, clamped to the observed
    min/max so small-sample answers stay sane; the implicit ``+Inf``
    bucket uses the observed max as its upper edge.
    """

    __slots__ = ("_bounds", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(
        self, upper_bounds_s: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S
    ) -> None:
        bounds = [float(b) for b in upper_bounds_s]
        if not bounds:
            raise ObservabilityError("histogram needs at least one bucket")
        if sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
            raise ObservabilityError(
                f"bucket bounds must be strictly increasing, got {bounds}"
            )
        if any(b <= 0 or math.isnan(b) or math.isinf(b) for b in bounds):
            raise ObservabilityError(
                f"bucket bounds must be finite and positive, got {bounds}"
            )
        self._bounds: Tuple[float, ...] = tuple(bounds)
        # One slot per finite bound plus the +Inf overflow bucket.
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0

    def observe(self, value: float) -> None:
        if not 0 <= value < math.inf:  # False for NaN
            raise ObservabilityError(
                f"observations must be finite and >= 0, got {value}"
            )
        # Prometheus buckets are ``le`` (inclusive upper bounds).
        self._counts[bisect.bisect_left(self._bounds, value)] += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def bounds(self) -> Tuple[float, ...]:
        return self._bounds

    def min(self) -> float:
        return self._min if self._count else 0.0

    def max(self) -> float:
        return self._max if self._count else 0.0

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def cumulative_counts(self) -> List[int]:
        """Cumulative count per bucket, ending with the total."""
        out: List[int] = []
        running = 0
        for count in self._counts:
            running += count
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Interpolated quantile (0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        if not self._count:
            return 0.0
        rank = q * self._count
        cumulative = 0
        lower = 0.0
        for index, count in enumerate(self._counts):
            upper = (
                self._bounds[index] if index < len(self._bounds) else self._max
            )
            if count and cumulative + count >= rank:
                fraction = (rank - cumulative) / count
                estimate = lower + (max(upper, lower) - lower) * fraction
                return min(max(estimate, self._min), self._max)
            cumulative += count
            lower = upper
        return self._max

    def fraction_below(self, threshold_s: float) -> float:
        """Approximate fraction of samples below a threshold (1.0 empty)."""
        if not self._count:
            return 1.0
        if threshold_s <= self._min:
            return 0.0
        if threshold_s > self._max:
            return 1.0
        below = 0.0
        lower = 0.0
        for index, count in enumerate(self._counts):
            upper = (
                self._bounds[index] if index < len(self._bounds) else self._max
            )
            if threshold_s >= upper:
                below += count
            elif threshold_s > lower:
                span = upper - lower
                below += count * ((threshold_s - lower) / span if span > 0 else 0.0)
            lower = upper
        return min(below / self._count, 1.0)


Instrument = Union[Counter, Gauge, BucketHistogram]


class MetricFamily:
    """All children of one named metric, keyed by label values."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets_s: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = _check_name(name)
        self.kind = kind
        self.help = help_text
        self.label_names = _check_labels(label_names)
        self.buckets_s = buckets_s
        self._children: Dict[LabelValues, Instrument] = {}

    def _make(self) -> Instrument:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return BucketHistogram(self.buckets_s or DEFAULT_LATENCY_BUCKETS_S)

    def labels(self, **labels: str) -> Instrument:
        """The child instrument for one label-value combination."""
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ObservabilityError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make()
        return child

    def counter_child(self, **labels: str) -> Counter:
        """:meth:`labels`, statically narrowed for counter families."""
        child = self.labels(**labels)
        if not isinstance(child, Counter):
            raise ObservabilityError(f"{self.name} is a {self.kind}, not a counter")
        return child

    def gauge_child(self, **labels: str) -> Gauge:
        child = self.labels(**labels)
        if not isinstance(child, Gauge):
            raise ObservabilityError(f"{self.name} is a {self.kind}, not a gauge")
        return child

    def histogram_child(self, **labels: str) -> BucketHistogram:
        child = self.labels(**labels)
        if not isinstance(child, BucketHistogram):
            raise ObservabilityError(
                f"{self.name} is a {self.kind}, not a histogram"
            )
        return child

    def adopt(self, values: LabelValues, instrument: Instrument) -> bool:
        """Insert an existing child under ``values`` (federated merges).

        Returns False (and leaves the family untouched) when the label
        set is already taken or the instrument kind does not match the
        family, so callers can count collisions instead of crashing a
        scrape.
        """
        if len(values) != len(self.label_names):
            return False
        expected = {
            "counter": Counter,
            "gauge": Gauge,
            "histogram": BucketHistogram,
        }[self.kind]
        if not isinstance(instrument, expected):
            return False
        key = tuple(str(value) for value in values)
        if key in self._children:
            return False
        self._children[key] = instrument
        return True

    def children(self) -> List[Tuple[LabelValues, Instrument]]:
        return sorted(self._children.items())


class MetricsRegistry:
    """Every instrument of one process, renderable as one page.

    Registration is idempotent: asking twice for the same name returns
    the same family (mismatched kind/labels raise), so independent
    subsystems can share a registry without coordination.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: Sequence[str],
        buckets_s: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != tuple(label_names):
                raise ObservabilityError(
                    f"metric {name!r} re-registered as {kind} "
                    f"{tuple(label_names)} (was {family.kind} "
                    f"{family.label_names})"
                )
            return family
        family = MetricFamily(
            name,
            kind,
            help_text,
            tuple(label_names),
            tuple(buckets_s) if buckets_s is not None else None,
        )
        self._families[name] = family
        return family

    def counter(self, name: str, help_text: str) -> Counter:
        """An unlabelled counter."""
        child = self._family(name, "counter", help_text, ()).labels()
        assert isinstance(child, Counter)
        return child

    def counter_family(
        self, name: str, help_text: str, label_names: Sequence[str]
    ) -> MetricFamily:
        """A labelled counter family (children via ``.labels(...)``)."""
        return self._family(name, "counter", help_text, label_names)

    def gauge(self, name: str, help_text: str) -> Gauge:
        child = self._family(name, "gauge", help_text, ()).labels()
        assert isinstance(child, Gauge)
        return child

    def gauge_family(
        self, name: str, help_text: str, label_names: Sequence[str]
    ) -> MetricFamily:
        return self._family(name, "gauge", help_text, label_names)

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets_s: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> BucketHistogram:
        child = self._family(name, "histogram", help_text, (), buckets_s).labels()
        assert isinstance(child, BucketHistogram)
        return child

    def histogram_family(
        self,
        name: str,
        help_text: str,
        label_names: Sequence[str],
        buckets_s: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> MetricFamily:
        return self._family(name, "histogram", help_text, label_names, buckets_s)

    def families(self) -> List[MetricFamily]:
        """Registered families in registration order."""
        return list(self._families.values())

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The registry as Prometheus text exposition (version 0.0.4)."""
        lines: List[str] = []
        for family in self._families.values():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, child in family.children():
                label_set = format_label_set(family.label_names, values)
                if isinstance(child, (Counter, Gauge)):
                    lines.append(f"{family.name}{label_set} {child.value:g}")
                    continue
                cumulative = child.cumulative_counts()
                edges = [f"{bound:g}" for bound in child.bounds] + ["+Inf"]
                for edge, running in zip(edges, cumulative):
                    bucket_labels = format_label_set(
                        family.label_names, values, extra=f'le="{edge}"'
                    )
                    lines.append(
                        f"{family.name}_bucket{bucket_labels} {running}"
                    )
                lines.append(f"{family.name}_sum{label_set} {child.sum:g}")
                lines.append(f"{family.name}_count{label_set} {child.count}")
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> Dict[str, object]:
        """The registry as one JSON-serialisable dict."""
        families: List[Dict[str, object]] = []
        for family in self._families.values():
            metrics: List[Dict[str, object]] = []
            for values, child in family.children():
                labels = dict(zip(family.label_names, values))
                if isinstance(child, (Counter, Gauge)):
                    metrics.append({"labels": labels, "value": child.value})
                else:
                    metrics.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "min": child.min(),
                            "max": child.max(),
                            "buckets": [
                                [bound, running]
                                for bound, running in zip(
                                    list(child.bounds) + [float("inf")],
                                    child.cumulative_counts(),
                                )
                            ],
                        }
                    )
            families.append(
                {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "metrics": metrics,
                }
            )
        return {"families": families}

    def render_json(self) -> str:
        """:meth:`snapshot` serialized (``inf`` bucket edges as strings)."""
        return json.dumps(_jsonify(self.snapshot()), sort_keys=False)


def _jsonify(value: object) -> object:
    """Replace non-finite floats so the snapshot is strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return "+Inf" if value > 0 and math.isinf(value) else str(value)
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value

"""Structured serving metrics: deadlines, stage latencies, realized QoE.

The slot loop must finish fold + allocate + encode + send inside
one ``SLOT_DURATION_S`` period or the frame misses its display slot
(Section III ties QoE directly to that deadline).  The serving layer
therefore times every stage of every slot, tracks the slot-deadline
hit rate as its headline number, and folds each seat's viewed
quality into a running sum and count (lockstep runs also keep
:class:`~repro.system.telemetry.Telemetry` records).

Every counter and histogram here lives in a
:class:`~repro.obs.registry.MetricsRegistry`, so the numbers the
``summary()`` dict reports and the numbers the live ``/metrics``
endpoint exposes are the same instruments, not parallel bookkeeping.
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.registry import (
    BucketHistogram,
    DEFAULT_LATENCY_BUCKETS_S,
    MetricsRegistry,
)
from repro.system.telemetry import Telemetry

#: Pipeline stages timed by the slot loop, in execution order.
STAGES = ("fold", "allocate", "encode", "send", "slot")


class LatencyHistogram:
    """Latency recorder for one pipeline stage.

    Backed by a bounded :class:`~repro.obs.registry.BucketHistogram`
    — ``O(buckets)`` memory however long the run, interpolated
    quantiles — which replaced an unbounded store-every-sample,
    sort-on-query recorder.  Short benchmark runs that need
    nearest-rank quantiles can opt back into sample retention with
    ``exact=True`` (packed doubles, 8 bytes per sample); the bucket
    vector is still fed either way so the exposition page stays
    complete.
    """

    def __init__(
        self,
        exact: bool = False,
        buckets: Optional[BucketHistogram] = None,
    ) -> None:
        self._buckets = (
            buckets
            if buckets is not None
            else BucketHistogram(DEFAULT_LATENCY_BUCKETS_S)
        )
        self._exact = exact
        self._samples = array("d")
        self._sorted = array("d")
        self._dirty = False

    @property
    def exact(self) -> bool:
        return self._exact

    def __len__(self) -> int:
        return self._buckets.count

    def record(self, seconds: float) -> None:
        """Add one latency sample (finite and >= 0)."""
        if not 0 <= seconds < math.inf:  # False for NaN
            raise ConfigurationError(
                f"latency must be finite and >= 0, got {seconds}"
            )
        self._buckets.observe(seconds)
        if self._exact:
            self._samples.append(seconds)
            self._dirty = True

    def _ordered(self) -> "array[float]":
        if self._dirty:
            self._sorted = array("d", sorted(self._samples))
            self._dirty = False
        return self._sorted

    def quantile(self, q: float) -> float:
        """Quantile in seconds (0 when empty).

        Nearest-rank over the retained samples in exact mode,
        bucket-interpolated otherwise.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self._exact:
            ordered = self._ordered()
            if not ordered:
                return 0.0
            rank = min(int(q * len(ordered)), len(ordered) - 1)
            return ordered[rank]
        return self._buckets.quantile(q)

    def mean(self) -> float:
        return self._buckets.mean()

    def max(self) -> float:
        return self._buckets.max()

    def fraction_below(self, threshold_s: float) -> float:
        """Fraction of samples strictly below a threshold (1.0 when empty)."""
        if self._exact:
            ordered = self._ordered()
            if not ordered:
                return 1.0
            return bisect.bisect_left(ordered, threshold_s) / len(ordered)
        return self._buckets.fraction_below(threshold_s)

    def summary_ms(self) -> Dict[str, float]:
        """p50/p90/p99/mean/max in milliseconds."""
        return {
            "count": float(len(self)),
            "p50_ms": self.quantile(0.50) * 1e3,
            "p90_ms": self.quantile(0.90) * 1e3,
            "p99_ms": self.quantile(0.99) * 1e3,
            "mean_ms": self.mean() * 1e3,
            "max_ms": self.max() * 1e3,
        }


class ServingMetrics:
    """All counters and histograms for one serving run.

    ``slot_s`` is the deadline each slot's pipeline is measured
    against.  The embedded :class:`Telemetry` receives one
    :class:`~repro.system.telemetry.SlotUserRecord` per (slot, seat)
    from a lockstep slot loop only — the same schema
    :meth:`~repro.system.experiment.SystemExperiment.run_repeat`
    emits.

    All figures live in ``registry`` (a fresh one when not supplied):
    reads go through properties, writes through ``record_*`` methods,
    so the serving layer cannot drift from its ``/metrics`` page.
    """

    def __init__(
        self,
        slot_s: float,
        registry: Optional[MetricsRegistry] = None,
        exact_latency: bool = False,
    ) -> None:
        if slot_s <= 0:
            raise ConfigurationError(f"slot_s must be positive, got {slot_s}")
        self.slot_s = slot_s
        self.registry = registry if registry is not None else MetricsRegistry()
        stage_family = self.registry.histogram_family(
            "repro_serve_stage_latency_seconds",
            "Slot-pipeline stage latency",
            ("stage",),
        )
        self.stage_latency: Dict[str, LatencyHistogram] = {
            stage: LatencyHistogram(
                exact=exact_latency,
                buckets=stage_family.histogram_child(stage=stage),
            )
            for stage in STAGES
        }
        self._slots = self.registry.counter(
            "repro_serve_slots_total", "Transmission slots executed"
        )
        self._deadline_hits = self.registry.counter(
            "repro_serve_deadline_hits_total",
            "Slots whose pipeline finished inside the slot deadline",
        )
        self._joins = self.registry.counter(
            "repro_serve_joins_total", "Clients admitted onto a seat"
        )
        self._leaves = self.registry.counter(
            "repro_serve_leaves_total", "Sessions released (any reason)"
        )
        self._timeouts = self.registry.counter(
            "repro_serve_timeouts_total", "Sessions released by a timeout"
        )
        self._rejects = self.registry.counter_family(
            "repro_serve_rejects_total",
            "Join requests rejected by the admission policy",
            ("code",),
        )
        self._degraded_user_slots = self.registry.counter(
            "repro_serve_degraded_user_slots_total",
            "User-slots served at the degraded minimum level",
        )
        self._missed_reports = self.registry.counter(
            "repro_serve_missed_reports_total",
            "Planned user-slots whose client report never arrived",
        )
        self._late_reports = self.registry.gauge(
            "repro_serve_late_reports",
            "Late reports accumulated across the live sessions",
        )
        self._dropped_frames = self.registry.counter(
            "repro_serve_dropped_frames_total",
            "Plan frames dropped at the write watermark",
        )
        self._active_sessions = self.registry.gauge(
            "repro_serve_active_sessions", "Sessions currently admitted"
        )
        self._disconnects = self.registry.counter(
            "repro_serve_disconnects_total",
            "Connections lost without a BYE (parked for resume or released)",
        )
        self._session_resumes = self.registry.counter(
            "repro_serve_session_resumes_total",
            "Detached sessions successfully re-attached by token",
        )
        self._resume_failures = self.registry.counter(
            "repro_serve_session_resume_failures_total",
            "Detached sessions whose grace window expired unclaimed",
        )
        self._corrupt_frames = self.registry.counter(
            "repro_serve_corrupt_frames_total",
            "Undecodable frames quarantined without dropping the session",
        )
        self._detached_user_slots = self.registry.counter(
            "repro_serve_detached_user_slots_total",
            "User-slots spent detached (awaiting resume or migration)",
        )
        self._migrations_out = self.registry.counter(
            "repro_serve_migrations_out_total",
            "Sessions handed off to another shard",
        )
        self._migrations_in = self.registry.counter(
            "repro_serve_migrations_in_total",
            "Sessions adopted from another shard",
        )
        # Registry-only by design: how plans are framed (one batch per
        # connection, however many seats it carries) must not leak
        # into summary(), which fleets packed onto any number of
        # sockets share bit for bit.
        self._protocol_frames = self.registry.counter_family(
            "repro_serve_protocol_frames_total",
            "Wire frames sent/received by the slot pipeline",
            ("direction",),
        )
        self.telemetry = Telemetry()
        self.telemetry.attach_registry(self.registry)
        # Integer levels: the sums are exact in any order.
        self._quality_sums: Dict[int, int] = {}
        self._quality_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_stage(self, stage: str, seconds: float) -> None:
        """Time one pipeline stage of the current slot."""
        if stage not in self.stage_latency:
            raise ConfigurationError(
                f"unknown stage {stage!r}; expected one of {STAGES}"
            )
        self.stage_latency[stage].record(seconds)

    def record_slot(self, seconds: float) -> None:
        """Close out one slot: total pipeline time vs the deadline."""
        self.stage_latency["slot"].record(seconds)
        self._slots.inc()
        if seconds < self.slot_s:
            self._deadline_hits.inc()

    def record_viewed_quality(
        self, seat: int, total: int, count: int = 1
    ) -> None:
        """Add ``count`` seat-slot viewed qualities summing to ``total``."""
        if count:
            self._quality_sums[seat] = self._quality_sums.get(seat, 0) + total
            self._quality_counts[seat] = (
                self._quality_counts.get(seat, 0) + count
            )

    def take_viewed_quality(self, seat: int) -> Tuple[int, int]:
        """Remove and return one seat's ``(sum, count)`` (migration)."""
        return (
            self._quality_sums.pop(seat, 0),
            self._quality_counts.pop(seat, 0),
        )

    def record_reject(self, code: str) -> None:
        self._rejects.counter_child(code=code).inc()

    def record_join(self) -> None:
        self._joins.inc()
        self._active_sessions.inc()

    def record_leave(self, timed_out: bool = False) -> None:
        self._leaves.inc()
        self._active_sessions.dec()
        if timed_out:
            self._timeouts.inc()

    def record_degraded_user_slot(self) -> None:
        self._degraded_user_slots.inc()

    def record_missed_report(self) -> None:
        self._missed_reports.inc()

    def record_dropped_frame(self) -> None:
        self._dropped_frames.inc()

    def set_late_reports(self, count: int) -> None:
        self._late_reports.set(count)

    def record_disconnect(self) -> None:
        self._disconnects.inc()

    def record_session_resume(self) -> None:
        self._session_resumes.inc()

    def record_resume_failure(self) -> None:
        self._resume_failures.inc()

    def record_corrupt_frame(self) -> None:
        self._corrupt_frames.inc()

    def record_detached_user_slots(self, count: int) -> None:
        """Count seats that spent this slot detached (downtime budget)."""
        if count > 0:
            self._detached_user_slots.inc(count)

    def record_migration_out(self) -> None:
        """A seat left for another shard — not a leave, not a failure.

        The active-session gauge drops (the seat is free here) but the
        leave counter is untouched: migrations are the coordinator's
        doing, and run-level accounting must not read them as churn.
        """
        self._migrations_out.inc()
        self._active_sessions.dec()

    def record_migration_in(self) -> None:
        """A seat adopted from another shard (counts as occupancy)."""
        self._migrations_in.inc()
        self._active_sessions.inc()

    def record_protocol_frames(self, direction: str, count: int = 1) -> None:
        """Count slot-pipeline frames by direction."""
        if count > 0:
            self._protocol_frames.counter_child(direction=direction).inc(count)

    # ------------------------------------------------------------------
    # Reads (all backed by the registry instruments)
    # ------------------------------------------------------------------
    @property
    def slots(self) -> int:
        return self._slots.count

    @property
    def deadline_hits(self) -> int:
        return self._deadline_hits.count

    @property
    def joins(self) -> int:
        return self._joins.count

    @property
    def leaves(self) -> int:
        return self._leaves.count

    @property
    def timeouts(self) -> int:
        return self._timeouts.count

    @property
    def rejects(self) -> Dict[str, int]:
        """Reject counts by admission code (empty when none)."""
        return {
            values[0]: int(child.value)
            for values, child in self._rejects.children()
            if child.value
        }

    @property
    def degraded_user_slots(self) -> int:
        return self._degraded_user_slots.count

    @property
    def missed_reports(self) -> int:
        return self._missed_reports.count

    @property
    def late_reports(self) -> int:
        return int(self._late_reports.value)

    @property
    def dropped_frames(self) -> int:
        return self._dropped_frames.count

    @property
    def disconnects(self) -> int:
        return self._disconnects.count

    @property
    def session_resumes(self) -> int:
        return self._session_resumes.count

    @property
    def resume_failures(self) -> int:
        return self._resume_failures.count

    @property
    def corrupt_frames(self) -> int:
        return self._corrupt_frames.count

    @property
    def detached_user_slots(self) -> int:
        return self._detached_user_slots.count

    @property
    def migrations_out(self) -> int:
        return self._migrations_out.count

    @property
    def migrations_in(self) -> int:
        return self._migrations_in.count

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------
    @property
    def deadline_hit_rate(self) -> float:
        """Fraction of slots whose pipeline beat the slot deadline."""
        return self.deadline_hits / self.slots if self.slots else 0.0

    def per_user_quality(self) -> Dict[int, float]:
        """Mean viewed quality per seat, in seat order.

        Equals :meth:`~repro.system.telemetry.Telemetry.viewed_quality_by_user`.
        """
        return {
            seat: self._quality_sums[seat] / count
            for seat, count in sorted(self._quality_counts.items())
        }

    def summary(self) -> Dict[str, object]:
        """One JSON-serialisable dict with every headline figure."""
        stages: Dict[str, Mapping[str, float]] = {
            stage: hist.summary_ms()
            for stage, hist in self.stage_latency.items()
            if len(hist)
        }
        return {
            "slots": self.slots,
            "deadline_hits": self.deadline_hits,
            "deadline_hit_rate": self.deadline_hit_rate,
            "slot_deadline_ms": self.slot_s * 1e3,
            "stage_latency_ms": stages,
            "joins": self.joins,
            "leaves": self.leaves,
            "timeouts": self.timeouts,
            "rejects": dict(sorted(self.rejects.items())),
            "degraded_user_slots": self.degraded_user_slots,
            "missed_reports": self.missed_reports,
            "late_reports": self.late_reports,
            "dropped_frames": self.dropped_frames,
            "disconnects": self.disconnects,
            "session_resumes": self.session_resumes,
            "resume_failures": self.resume_failures,
            "corrupt_frames": self.corrupt_frames,
            "migrations_out": self.migrations_out,
            "migrations_in": self.migrations_in,
            "per_user_mean_viewed_quality": {
                str(user): quality
                for user, quality in self.per_user_quality().items()
            },
        }

"""Observability configuration and the per-process ``Obs`` bundle.

An :class:`ObsConfig` is carried inside
:class:`~repro.serve.config.ServeConfig` (and can be handed to the
in-process experiment directly); :meth:`Obs.from_config` materializes
it into the three runtime pieces — one
:class:`~repro.obs.registry.MetricsRegistry`, one tracer, one flight
recorder — swapping in null implementations when disabled so the
instrumented hot paths stay branch-cheap.

The null tracer and flight recorder, and the trigger names the serving
path fires, live here, so a process with observability off never
loads the tracer, the flight recorder, the span codec or the SLO
engine: :meth:`Obs.from_config` imports the real pieces only when
``enabled`` is set.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import ConfigurationError, require_ints
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:
    from repro.obs.flight import AnyFlightRecorder, FlightDump
    from repro.obs.slo import SloConfig
    from repro.obs.spans import Span
    from repro.obs.tracer import AnyTracer, SlotSpanBuilder

#: Anomaly triggers the serving path fires.
TRIGGER_DEADLINE_MISS = "deadline_miss"
TRIGGER_ADMISSION_REJECT = "admission_reject"
TRIGGER_WRITE_DROP = "write_drop"
TRIGGER_SESSION_RESUME_FAILED = "session_resume_failed"

#: Cluster-level triggers the shard coordinator/supervisor fire.
TRIGGER_SHARD_KILL = "shard_kill"
TRIGGER_MIGRATION_STALL = "migration_stall"
TRIGGER_SHARD_RESPAWN = "shard_respawn"

#: Fired by the SLO engine when an objective's burn rate breaches.
TRIGGER_SLO_BREACH = "slo_breach"

TRIGGERS = (
    TRIGGER_DEADLINE_MISS, TRIGGER_ADMISSION_REJECT, TRIGGER_WRITE_DROP,
    TRIGGER_SESSION_RESUME_FAILED, TRIGGER_SHARD_KILL,
    TRIGGER_MIGRATION_STALL, TRIGGER_SHARD_RESPAWN, TRIGGER_SLO_BREACH,
)

#: Default trace sampling: one slot span written out of every N built.
DEFAULT_SAMPLE_EVERY = 16


@dataclass(frozen=True)
class ObsConfig:
    """Knobs of the observability layer.

    Parameters
    ----------
    enabled:
        Master switch for span building, tracing, and flight
        recording.  Metrics counters always run (they replaced the
        serving layer's original ad-hoc counters and cost one float
        add each); everything span-shaped is gated here.
    trace_path:
        JSONL sink for slot spans (``None`` = no trace file).
    sample_every:
        Write one slot span out of every N to ``trace_path`` (1 = all
        slots).  Span *construction* is not sampled — the flight
        recorder always sees every slot.
    flight_capacity:
        Slot spans kept in the flight-recorder ring.
    flight_dir:
        Directory for anomaly dump files (``None`` = in-memory only).
    flight_max_dumps:
        Dump cap per run; further triggers are counted, not dumped.
    http_host / http_port:
        Endpoint for ``/metrics``, ``/healthz`` and ``/snapshot``;
        ``http_port=None`` disables the listener, ``0`` binds an
        ephemeral port.
    slo:
        Declarative SLO set evaluated as windowed burn rates by the
        slot loop (``None`` = no SLO engine).  Evaluation only reads
        counters — an enabled engine stays bit-inert.
    """

    enabled: bool = True
    trace_path: Optional[str] = None
    sample_every: int = DEFAULT_SAMPLE_EVERY
    flight_capacity: int = 120
    flight_dir: Optional[str] = None
    flight_max_dumps: int = 8
    http_host: str = "127.0.0.1"
    http_port: Optional[int] = None
    slo: Optional[SloConfig] = None

    def __post_init__(self) -> None:
        require_ints(self, (
            "sample_every", "flight_capacity", "flight_max_dumps",
        ) + (("http_port",) if self.http_port is not None else ()))
        if self.sample_every < 1:
            raise ConfigurationError(
                f"sample_every must be >= 1, got {self.sample_every}"
            )
        if self.flight_capacity < 1:
            raise ConfigurationError(
                f"flight_capacity must be >= 1, got {self.flight_capacity}"
            )
        if self.flight_max_dumps < 1:
            raise ConfigurationError(
                f"flight_max_dumps must be >= 1, got {self.flight_max_dumps}"
            )
        if self.http_port is not None and not 0 <= self.http_port <= 0xFFFF:
            raise ConfigurationError(
                f"http_port must be in [0, 65535], got {self.http_port}"
            )


class NullTracer:
    """Tracing disabled: builders are still handed out (the flight
    recorder path needs none), but nothing is retained or written."""

    @property
    def enabled(self) -> bool:
        return False

    def slot(self, slot: int, start_s: float) -> SlotSpanBuilder:
        from repro.obs.tracer import SlotSpanBuilder

        return SlotSpanBuilder(slot, start_s)

    def emit(self, span: Span) -> bool:
        return False

    def flush(self) -> None:
        return None

    async def aflush(self) -> None:
        return None

    def close(self) -> None:
        return None


class NullFlightRecorder:
    """Flight recording disabled: every call is a cheap no-op."""

    def __init__(self) -> None:
        self.dumps: List[FlightDump] = []
        self.suppressed = 0

    @property
    def enabled(self) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def record(self, span: Span) -> None:
        return None

    def trigger(
        self, trigger: str, detail: str = "", slot: int = -1
    ) -> Optional[FlightDump]:
        return None

    def last_dump_for(self, trigger: str) -> Optional[FlightDump]:
        return None

    def flush(self) -> None:
        return None

    async def aflush(self) -> None:
        return None

    def summary(self) -> Dict[str, object]:
        return {"ring_slots": 0, "capacity": 0, "dumps": [], "suppressed": 0}


class Obs:
    """One process's observability runtime: registry, tracer, flight.

    A disabled bundle holds the null tracer and flight recorder defined
    in this module, so building one loads neither
    :mod:`repro.obs.tracer` nor :mod:`repro.obs.flight`, and closing it
    starts no worker thread.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        tracer: AnyTracer,
        flight: AnyFlightRecorder,
        active: bool,
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self.flight = flight
        #: When False the hot paths skip span construction entirely.
        self.active = active

    @classmethod
    def from_config(
        cls, config: ObsConfig, registry: Optional[MetricsRegistry] = None
    ) -> "Obs":
        registry = registry if registry is not None else MetricsRegistry()
        if not config.enabled:
            return cls(registry, NullTracer(), NullFlightRecorder(), False)
        from repro.obs.flight import FlightRecorder
        from repro.obs.tracer import Tracer

        tracer = Tracer(
            path=config.trace_path,
            sample_every=config.sample_every,
            registry=registry,
        )
        flight = FlightRecorder(
            capacity=config.flight_capacity,
            out_dir=config.flight_dir,
            max_dumps=config.flight_max_dumps,
            registry=registry,
        )
        return cls(registry, tracer, flight, True)

    @classmethod
    def disabled(cls, registry: Optional[MetricsRegistry] = None) -> "Obs":
        """A null bundle: counters work, spans cost nothing."""
        return cls(
            registry if registry is not None else MetricsRegistry(),
            NullTracer(),
            NullFlightRecorder(),
            False,
        )

    def flush(self) -> None:
        """Drain deferred trace/dump writes (blocking; sync contexts)."""
        self.tracer.flush()
        self.flight.flush()

    async def aflush(self) -> None:
        """Drain deferred trace/dump writes off the event loop."""
        await self.tracer.aflush()
        await self.flight.aflush()

    def close(self) -> None:
        self.flight.flush()
        self.tracer.close()

    async def aclose(self) -> None:
        """Flush and close without blocking the event loop.

        Only a live tracer has a file to close; a disabled bundle
        starts no worker thread.
        """
        await self.aflush()
        if self.active:
            await asyncio.to_thread(self.tracer.close)

"""Per-slot tracing: span builders, a JSONL sink, and a sampling knob.

The slot loop owns the clock (it already reads ``loop.time()`` to
enforce the deadline), so the tracer never reads one itself: stage
boundaries are handed in as monotonic offsets and the tracer only
assembles the span tree.  That keeps the instrumentation provably
inert — no syscalls, no RNG, no awaits — and its cost at a handful of
dict/list allocations per slot.

Sampling (``sample_every``) applies to the *sink*, not to span
construction: every slot's span is always built and offered to the
flight recorder (an anomaly dump must contain the offending slot even
when tracing is sampled down), but only every Nth span is serialized
to the JSONL file, which is where the real cost lives.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import IO, Dict, List, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.registry import Counter, MetricsRegistry
from repro.obs.spans import AttrValue, Span, stream_header

# The null tracer lives with the config that builds it (an obs-off
# process never loads this module); it is re-exported here.
from repro.obs.config import NullTracer as NullTracer


def _in_event_loop() -> bool:
    """True when called from a running asyncio event-loop thread."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return False
    return True


class SlotSpanBuilder:
    """Accumulates one slot's span tree stage by stage."""

    __slots__ = ("span", "_allocation")

    def __init__(self, slot: int, start_s: float) -> None:
        self.span = Span(
            name="slot", start_s=start_s, duration_s=0.0, attrs={"slot": slot}
        )
        self._allocation: Optional[Span] = None

    def stage(
        self, name: str, start_s: float, end_s: float, **attrs: AttrValue
    ) -> Span:
        """Record one pipeline stage from its boundary clock reads."""
        span = self.span.child(
            name, start_s=start_s, duration_s=max(end_s - start_s, 0.0), **attrs
        )
        if name == "allocate":
            self._allocation = span
        return span

    def user(self, seat: int, **attrs: AttrValue) -> Span:
        """Record one seat's allocation under the allocate stage.

        Falls back to the slot root when no allocate stage has been
        recorded (the simulator's condensed pipeline).
        """
        parent = self._allocation if self._allocation is not None else self.span
        return parent.child("user", parent.start_s, 0.0, seat=seat, **attrs)

    def finish(self, end_s: float, **attrs: AttrValue) -> Span:
        """Close the root span and return it."""
        self.span.duration_s = max(end_s - self.span.start_s, 0.0)
        self.span.attrs.update(attrs)
        return self.span


class Tracer:
    """Builds slot spans and writes a sampled stream to a JSONL sink.

    ``sample_every=1`` writes every slot, ``n`` writes slots 0, n,
    2n, ...; the path is opened lazily on the first write so a tracer
    with no traffic leaves no file.  :meth:`close` flushes and is
    idempotent.

    File I/O never runs on a live event loop: when :meth:`emit` is
    called with a loop running (the serving path), the serialized
    lines are queued and written later by :meth:`aflush` — which hands
    the actual ``write`` to ``asyncio.to_thread`` — or by
    :meth:`close`.  With no loop (the simulator, tests, offline
    analysis) writes happen inline and the file is immediately
    readable.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        sample_every: int = 1,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if sample_every < 1:
            raise ObservabilityError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.path = Path(path) if path is not None else None
        self.sample_every = sample_every
        self._handle: Optional[IO[str]] = None
        self._pending: List[str] = []
        self._built = 0
        self._spans_written: Optional[Counter] = None
        self._spans_sampled_out: Optional[Counter] = None
        if registry is not None:
            self._spans_written = registry.counter(
                "repro_obs_spans_written_total",
                "Slot spans serialized to the trace sink",
            )
            self._spans_sampled_out = registry.counter(
                "repro_obs_spans_sampled_out_total",
                "Slot spans built but not written (sampling)",
            )

    @property
    def enabled(self) -> bool:
        return True

    def slot(self, slot: int, start_s: float) -> SlotSpanBuilder:
        """Start the span tree for one slot."""
        return SlotSpanBuilder(slot, start_s)

    def emit(self, span: Span) -> bool:
        """Offer a finished slot span to the sink; True when accepted.

        On an event-loop thread the serialized line is queued (see
        the class docstring); otherwise it is written inline.
        """
        index = self._built
        self._built += 1
        if self.path is None or index % self.sample_every != 0:
            if self._spans_sampled_out is not None:
                self._spans_sampled_out.inc()
            return False
        line = json.dumps(span.to_dict()) + "\n"
        if _in_event_loop():
            self._pending.append(line)
        else:
            self._write_lines([line])
        if self._spans_written is not None:
            self._spans_written.inc()
        return True

    def _write_lines(self, lines: List[str]) -> None:
        """Blocking append to the sink; lazily opens it with a header."""
        if self.path is None or not lines:
            return
        if self._handle is None:
            self._handle = open(self.path, "w", encoding="utf-8")
            self._handle.write(json.dumps(stream_header()) + "\n")
        for line in lines:
            self._handle.write(line)

    def flush(self) -> None:
        """Drain queued spans to the sink (blocking; sync contexts)."""
        pending, self._pending = self._pending, []
        self._write_lines(pending)

    async def aflush(self) -> None:
        """Drain queued spans without blocking the event loop."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        await asyncio.to_thread(self._write_lines, pending)

    def close(self) -> None:
        self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None


AnyTracer = Union[Tracer, NullTracer]


def stage_latency_table(spans: List[Span]) -> Dict[str, List[float]]:
    """Per-stage duration samples (seconds) across a span stream."""
    stages: Dict[str, List[float]] = {}
    for span in spans:
        stages.setdefault("slot", []).append(span.duration_s)
        for child in span.children:
            if child.name != "user":
                stages.setdefault(child.name, []).append(child.duration_s)
    return stages

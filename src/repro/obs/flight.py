"""Flight recorder: a ring of recent slot spans, dumped on anomalies.

Always-on tracing at 60 Hz is unaffordable in production and unneeded
in the steady state; what matters is the window *around* a failure.
The recorder therefore keeps the last ``capacity`` slot spans in a
fixed ring and, when an anomaly fires — a missed slot deadline, an
admission reject, a write-watermark frame drop — snapshots the ring
into an in-memory :class:`FlightDump` (and a JSONL file when a dump
directory is configured).  Dumps are capped per run so a pathological
run cannot fill a disk, and every trigger is counted in the registry
whether or not it produced a dump.

Dump files never get written on a live event loop: triggers fired
from the serving path (a loop is running) snapshot the ring in memory,
reserve the file path, and queue the serialized payload;
:meth:`FlightRecorder.aflush` — scheduled by the slot loop after the
deadline check — performs the actual write in a worker thread.  Sync
contexts (simulator, tests, CLI) write inline, so ``dump.path`` is
immediately readable there.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.errors import ObservabilityError
from repro.obs.registry import MetricFamily, MetricsRegistry
from repro.obs.spans import Span, stream_header

# The null recorder and the trigger names live with the config that
# builds them (an obs-off process never loads this module); they are
# re-exported here, where they were first defined.
from repro.obs.config import (
    NullFlightRecorder as NullFlightRecorder,
    TRIGGERS as TRIGGERS,
    TRIGGER_ADMISSION_REJECT as TRIGGER_ADMISSION_REJECT,
    TRIGGER_DEADLINE_MISS as TRIGGER_DEADLINE_MISS,
    TRIGGER_MIGRATION_STALL as TRIGGER_MIGRATION_STALL,
    TRIGGER_SESSION_RESUME_FAILED as TRIGGER_SESSION_RESUME_FAILED,
    TRIGGER_SHARD_KILL as TRIGGER_SHARD_KILL,
    TRIGGER_SHARD_RESPAWN as TRIGGER_SHARD_RESPAWN,
    TRIGGER_SLO_BREACH as TRIGGER_SLO_BREACH,
    TRIGGER_WRITE_DROP as TRIGGER_WRITE_DROP,
)


def _in_event_loop() -> bool:
    """True when called from a running asyncio event-loop thread."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return False
    return True


@dataclass(frozen=True)
class FlightDump:
    """One anomaly snapshot of the recent-slot ring."""

    trigger: str
    detail: str
    slot: int
    spans: Tuple[Span, ...]
    path: Optional[Path] = None

    def slot_numbers(self) -> List[int]:
        return [
            int(span.attrs.get("slot", -1))
            for span in self.spans
            if isinstance(span.attrs.get("slot"), int)
        ]


class FlightRecorder:
    """Fixed-size ring buffer of slot spans with triggered dumps."""

    def __init__(
        self,
        capacity: int = 120,
        out_dir: Optional[Union[str, Path]] = None,
        max_dumps: int = 8,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ObservabilityError(f"capacity must be >= 1, got {capacity}")
        if max_dumps < 1:
            raise ObservabilityError(f"max_dumps must be >= 1, got {max_dumps}")
        self.capacity = capacity
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.max_dumps = max_dumps
        self._ring: Deque[Span] = deque(maxlen=capacity)
        self.dumps: List[FlightDump] = []
        self.suppressed = 0
        #: Dump files queued while an event loop was running:
        #: ``(path, serialized JSONL lines)``, drained by flush/aflush.
        self._pending: List[Tuple[Path, List[str]]] = []
        self._triggers: Optional[MetricFamily] = None
        if registry is not None:
            self._triggers = registry.counter_family(
                "repro_obs_flight_triggers_total",
                "Anomaly triggers seen by the flight recorder",
                ("trigger",),
            )

    @property
    def enabled(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self._ring)

    def record(self, span: Span) -> None:
        """Append one finished slot span to the ring."""
        self._ring.append(span)

    def trigger(
        self, trigger: str, detail: str = "", slot: int = -1
    ) -> Optional[FlightDump]:
        """Fire an anomaly: snapshot the ring unless the cap is hit."""
        if self._triggers is not None:
            self._triggers.counter_child(trigger=trigger).inc()
        if len(self.dumps) >= self.max_dumps:
            self.suppressed += 1
            return None
        dump = FlightDump(
            trigger=trigger,
            detail=detail,
            slot=slot,
            spans=tuple(self._ring),
            path=self._write(trigger, detail, slot),
        )
        self.dumps.append(dump)
        return dump

    def _write(self, trigger: str, detail: str, slot: int) -> Optional[Path]:
        if self.out_dir is None:
            return None
        path = self.out_dir / f"flight_{len(self.dumps):03d}_{trigger}.jsonl"
        header = stream_header("repro.obs.flight")
        header.update({"trigger": trigger, "detail": detail, "slot": slot})
        lines = [json.dumps(header) + "\n"]
        lines.extend(json.dumps(span.to_dict()) + "\n" for span in self._ring)
        if _in_event_loop():
            self._pending.append((path, lines))
        else:
            self._write_file(path, lines)
        return path

    def _write_file(self, path: Path, lines: List[str]) -> None:
        """Blocking dump-file write (worker thread or sync context)."""
        self.out_dir.mkdir(parents=True, exist_ok=True)  # type: ignore[union-attr]
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)

    def _drain(self, pending: List[Tuple[Path, List[str]]]) -> None:
        for path, lines in pending:
            self._write_file(path, lines)

    def flush(self) -> None:
        """Write queued dump files (blocking; sync contexts)."""
        pending, self._pending = self._pending, []
        self._drain(pending)

    async def aflush(self) -> None:
        """Write queued dump files without blocking the event loop."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        await asyncio.to_thread(self._drain, pending)

    def last_dump_for(self, trigger: str) -> Optional[FlightDump]:
        """The most recent dump fired by a given trigger, if any."""
        for dump in reversed(self.dumps):
            if dump.trigger == trigger:
                return dump
        return None

    def summary(self) -> Dict[str, object]:
        return {
            "ring_slots": len(self._ring),
            "capacity": self.capacity,
            "dumps": [
                {
                    "trigger": dump.trigger,
                    "detail": dump.detail,
                    "slot": dump.slot,
                    "spans": len(dump.spans),
                    "path": str(dump.path) if dump.path is not None else None,
                }
                for dump in self.dumps
            ],
            "suppressed": self.suppressed,
        }


AnyFlightRecorder = Union[FlightRecorder, NullFlightRecorder]

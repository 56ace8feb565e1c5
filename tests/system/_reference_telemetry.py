"""Reference copy of the list-backed telemetry store.

This is ``Telemetry`` as it was written with one ``SlotUserRecord``
per (slot, user) held in a Python list.  It is kept verbatim (only
renamed) so the columnar store in :mod:`repro.system.telemetry` can be
checked query for query, and byte for byte on export, against it.  It
lives under ``tests/`` only and is never imported by the package.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, ObservabilityError
from repro.obs.registry import Counter, MetricsRegistry
from repro.system.telemetry import (
    FIELDS,
    TELEMETRY_SCHEMA_VERSION,
    TELEMETRY_STREAM_KIND,
    PathLike,
    SlotUserRecord,
    _parse_json_line,
)


class ReferenceTelemetry:
    """Append-only per-slot record store with summary helpers."""

    def __init__(self) -> None:
        self._records: List[SlotUserRecord] = []
        self._counter: Optional["Counter"] = None

    def attach_registry(self, registry: "MetricsRegistry") -> None:
        """Mirror the record count onto a metrics registry.

        Registers ``repro_telemetry_records_total`` and keeps it in
        step with records already collected and every later ``add``.
        """
        self._counter = registry.counter(
            "repro_telemetry_records_total",
            "Slot-user telemetry records collected",
        )
        if self._records:
            self._counter.inc(len(self._records))

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Sequence[SlotUserRecord]:
        return tuple(self._records)

    def add(self, record: SlotUserRecord) -> None:
        self._records.append(record)
        if self._counter is not None:
            self._counter.inc()

    def for_user(self, user: int) -> List[SlotUserRecord]:
        return [r for r in self._records if r.user == user]

    def extract_user(self, user: int) -> List[SlotUserRecord]:
        """Remove and return one user's records (slot order preserved).

        Session migration moves a seat's telemetry to another shard's
        collector; the records leave this store so the run-level merge
        does not double-count them.  The mirrored
        ``repro_telemetry_records_total`` counter is monotonic and is
        deliberately *not* decremented — it counts collections, not
        residency.
        """
        extracted = [r for r in self._records if r.user == user]
        self._records = [r for r in self._records if r.user != user]
        return extracted

    def ingest(self, records: Sequence[SlotUserRecord]) -> None:
        """Append records handed over from another collector."""
        for record in records:
            self.add(record)

    def for_slot(self, slot: int) -> List[SlotUserRecord]:
        return [r for r in self._records if r.slot == slot]

    def miss_slots(self, user: int) -> List[int]:
        """Slots where the user had content allocated but no display."""
        return [
            r.slot
            for r in self._records
            if r.user == user and r.level > 0 and not r.displayed
        ]

    def level_timeline(self, user: int) -> List[int]:
        """The user's allocated level per slot, in slot order."""
        return [r.level for r in sorted(self.for_user(user), key=lambda r: r.slot)]

    def utilisation(self, user: int) -> float:
        """Mean demand / achieved over the user's transmitting slots."""
        samples = [
            r.demand_mbps / r.achieved_mbps
            for r in self.for_user(user)
            if r.demand_mbps > 0 and r.achieved_mbps > 0
        ]
        return sum(samples) / len(samples) if samples else 0.0

    def summary(self) -> Dict[str, float]:
        """Aggregate counters across all records."""
        if not self._records:
            raise ConfigurationError("no telemetry recorded yet")
        total = len(self._records)
        transmitted = [r for r in self._records if r.level > 0]
        displayed = sum(1 for r in transmitted if r.displayed)
        return {
            "records": float(total),
            "transmit_fraction": len(transmitted) / total,
            "display_fraction": (
                displayed / len(transmitted) if transmitted else 0.0
            ),
            "mean_demand_mbps": (
                sum(r.demand_mbps for r in transmitted) / len(transmitted)
                if transmitted
                else 0.0
            ),
            "mean_achieved_mbps": (
                sum(r.achieved_mbps for r in transmitted) / len(transmitted)
                if transmitted
                else 0.0
            ),
        }

    def save_csv(self, path: PathLike) -> None:
        """Write all records as CSV with a header row."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(FIELDS)
            for record in self._records:
                writer.writerow(record.as_row())

    def to_jsonl(self, handle: IO[str]) -> None:
        """Write all records as a versioned JSONL stream.

        The first line is a header carrying ``kind``,
        ``schema_version`` and the field list; each later line is one
        record object.  :meth:`load_jsonl` round-trips the stream.
        """
        header = {
            "kind": TELEMETRY_STREAM_KIND,
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "fields": list(FIELDS),
        }
        handle.write(json.dumps(header) + "\n")
        for record in self._records:
            handle.write(json.dumps(record.as_dict()) + "\n")

    def save_jsonl(self, path: PathLike) -> None:
        """:meth:`to_jsonl` to a file path."""
        with open(path, "w", encoding="utf-8") as handle:
            self.to_jsonl(handle)

    @classmethod
    def load_jsonl(cls, path: PathLike) -> "ReferenceTelemetry":
        """Read a stream written by :meth:`save_jsonl`.

        Raises :class:`~repro.errors.ObservabilityError` on a missing
        or incompatible header and on any malformed record line.
        """
        telemetry = cls()
        with open(path, "r", encoding="utf-8") as handle:
            header_line = handle.readline()
            if not header_line.strip():
                raise ObservabilityError(
                    "telemetry stream is empty (no header line)"
                )
            header = _parse_json_line(header_line, 1)
            kind = header.get("kind")
            if kind != TELEMETRY_STREAM_KIND:
                raise ObservabilityError(
                    f"not a telemetry stream (kind={kind!r})"
                )
            version = header.get("schema_version")
            if version != TELEMETRY_SCHEMA_VERSION:
                raise ObservabilityError(
                    f"unsupported telemetry schema_version {version!r} "
                    f"(expected {TELEMETRY_SCHEMA_VERSION})"
                )
            for number, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                telemetry.add(
                    SlotUserRecord.from_dict(_parse_json_line(line, number))
                )
        return telemetry

    def clear(self) -> None:
        self._records.clear()

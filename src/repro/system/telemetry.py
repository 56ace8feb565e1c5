"""Per-slot telemetry for the system emulation.

The paper's evaluation reports end-of-run averages; debugging a
scheduler needs the *time series* — which slots missed, what the
estimates believed, how demand tracked capacity.  A
:class:`Telemetry` collector can be passed to
:meth:`repro.system.experiment.SystemExperiment.run_repeat` to capture
one record per (slot, user) with the planner's view and the realized
outcome, exportable as CSV or as a versioned JSONL stream.

A collector can optionally be attached to a
:class:`~repro.obs.registry.MetricsRegistry`
(:meth:`Telemetry.attach_registry`), which mirrors the record count
onto the process's ``/metrics`` page without changing what is stored.
"""

from __future__ import annotations

import json
import pathlib
from array import array
from dataclasses import dataclass
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.errors import ConfigurationError, ObservabilityError
from repro.obs.registry import Counter, MetricsRegistry

PathLike = Union[str, pathlib.Path]

#: Version of the telemetry JSONL schema (bump on incompatible change).
TELEMETRY_SCHEMA_VERSION = 1

#: ``kind`` value of the header line of a telemetry JSONL file.
TELEMETRY_STREAM_KIND = "repro.telemetry.slot_user"

#: Column order of the exported rows.
FIELDS = (
    "slot",
    "user",
    "level",
    "demand_mbps",
    "achieved_mbps",
    "believed_cap_mbps",
    "displayed",
    "covered",
    "delay_slots",
)

#: Bits of :class:`Telemetry`'s flag column.
_DISPLAYED = 1
_COVERED = 2

#: Bounds of :class:`Telemetry`'s int columns (``"i"`` and ``"B"``).
_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1
LEVEL_MAX = 255


@dataclass(frozen=True)
class SlotUserRecord:
    """One user's planner view and outcome in one slot.

    The experiment records the phone's own ``displayed`` and
    ``covered``.  A served run learns only the report's indicator
    (displayed and covered) and writes it into both, so a frame that
    was displayed but missed the true FoV reads ``displayed=True`` in
    the experiment and ``False`` when served; every other field agrees.

    A run keeps one record per seat per slot, so the record is slotted
    (no per-instance ``__dict__``).  ``__reduce__`` rebuilds it through
    the constructor, which ``pickle`` and ``copy`` need because a
    frozen instance rejects the attribute writes of the default path.
    """

    __slots__ = FIELDS

    slot: int
    user: int
    level: int
    demand_mbps: float
    achieved_mbps: float
    believed_cap_mbps: float
    displayed: bool
    covered: bool
    delay_slots: float

    def __reduce__(self) -> Tuple[Type["SlotUserRecord"], Tuple[object, ...]]:
        return (type(self), tuple(self.as_row()))

    def as_row(self) -> List[object]:
        return [getattr(self, field) for field in FIELDS]

    def as_dict(self) -> Dict[str, object]:
        return {field: getattr(self, field) for field in FIELDS}

    @classmethod
    def from_dict(cls, raw: object) -> "SlotUserRecord":
        """Parse one record; refuses values :class:`Telemetry` cannot hold."""
        if not isinstance(raw, dict):
            raise ObservabilityError(
                f"telemetry record must be an object, got {type(raw).__name__}"
            )
        missing = [field for field in FIELDS if field not in raw]
        if missing:
            raise ObservabilityError(
                f"telemetry record missing fields {missing}"
            )
        try:
            record = cls(
                slot=int(raw["slot"]),
                user=int(raw["user"]),
                level=int(raw["level"]),
                demand_mbps=float(raw["demand_mbps"]),
                achieved_mbps=float(raw["achieved_mbps"]),
                believed_cap_mbps=float(raw["believed_cap_mbps"]),
                displayed=bool(raw["displayed"]),
                covered=bool(raw["covered"]),
                delay_slots=float(raw["delay_slots"]),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ObservabilityError(
                f"telemetry record has non-numeric fields: {exc}"
            ) from exc
        _refuse_out_of_range(record)
        return record


class Telemetry:
    """Append-only per-slot record store with summary helpers.

    A lockstep served run adds one record per seat per slot, so the
    store keeps columns, not record objects: ``slot`` and ``user`` in
    ``array("i")``, ``level`` and the two flags (as bits) in
    ``array("B")`` and the four floats in ``array("d")`` — 42 bytes
    per record.  Queries build :class:`SlotUserRecord` rows on demand;
    numeric fields read back as ``int`` and ``float``, the types every
    producer writes.  A record whose ``slot`` or ``user`` does not fit
    a signed 32-bit int, or whose ``level`` is outside 0..255, is
    refused before any column grows; one with a field of the wrong type
    (a float ``user``, a string delay) is refused with the columns
    rolled back.  Either way the columns always stay the same length.
    """

    def __init__(self) -> None:
        self._slot = array("i")
        self._user = array("i")
        self._level = array("B")
        self._demand = array("d")
        self._achieved = array("d")
        self._believed = array("d")
        self._flags = array("B")
        self._delay = array("d")
        self._counter: Optional["Counter"] = None

    def _columns(self) -> Tuple["array[Any]", ...]:
        return (
            self._slot, self._user, self._level, self._demand,
            self._achieved, self._believed, self._flags, self._delay,
        )

    def _row(self, i: int) -> SlotUserRecord:
        flags = self._flags[i]
        return SlotUserRecord(
            self._slot[i],
            self._user[i],
            self._level[i],
            self._demand[i],
            self._achieved[i],
            self._believed[i],
            bool(flags & _DISPLAYED),
            bool(flags & _COVERED),
            self._delay[i],
        )

    def attach_registry(self, registry: "MetricsRegistry") -> None:
        """Mirror the record count onto a metrics registry.

        Registers ``repro_telemetry_records_total`` and keeps it in
        step with records already collected and every later ``add``.
        """
        self._counter = registry.counter(
            "repro_telemetry_records_total",
            "Slot-user telemetry records collected",
        )
        if len(self):
            self._counter.inc(len(self))

    def __len__(self) -> int:
        return len(self._slot)

    @property
    def records(self) -> Sequence[SlotUserRecord]:
        return tuple(self._row(i) for i in range(len(self)))

    def add(self, record: SlotUserRecord) -> None:
        if not (
            _INT32_MIN <= record.slot <= _INT32_MAX
            and _INT32_MIN <= record.user <= _INT32_MAX
            and 0 <= record.level <= LEVEL_MAX
        ):
            _refuse_out_of_range(record)
        try:
            self._slot.append(record.slot)
            self._user.append(record.user)
            self._level.append(record.level)
            self._demand.append(record.demand_mbps)
            self._achieved.append(record.achieved_mbps)
            self._believed.append(record.believed_cap_mbps)
            self._flags.append(
                (_DISPLAYED if record.displayed else 0)
                | (_COVERED if record.covered else 0)
            )
            self._delay.append(record.delay_slots)
        except (TypeError, OverflowError) as exc:
            # A field of the wrong type fails mid-record: drop what was
            # appended so every column keeps the same length.  ``_delay``
            # grows last, so it still has the length before this record.
            size = len(self._delay)
            for column in self._columns():
                del column[size:]
            raise ObservabilityError(
                f"telemetry record has a field of the wrong type: {exc}"
            ) from exc
        if self._counter is not None:
            self._counter.inc()

    def for_user(self, user: int) -> List[SlotUserRecord]:
        return [self._row(i) for i, u in enumerate(self._user) if u == user]

    def extract_user(self, user: int) -> List[SlotUserRecord]:
        """Remove and return one user's records (slot order preserved).

        Session migration moves a seat's telemetry to another shard's
        collector; the records leave this store so the run-level merge
        does not double-count them.  The mirrored
        ``repro_telemetry_records_total`` counter is monotonic and is
        deliberately *not* decremented — it counts collections, not
        residency.
        """
        extracted = self.for_user(user)
        if extracted:
            keep = [i for i, u in enumerate(self._user) if u != user]
            for column in self._columns():
                column[:] = array(column.typecode, [column[i] for i in keep])
        return extracted

    def ingest(self, records: Sequence[SlotUserRecord]) -> None:
        """Append records handed over from another collector."""
        for record in records:
            self.add(record)

    def for_slot(self, slot: int) -> List[SlotUserRecord]:
        return [self._row(i) for i, s in enumerate(self._slot) if s == slot]

    def miss_slots(self, user: int) -> List[int]:
        """Slots where the user had content allocated but no display."""
        return [
            slot
            for slot, u, level, flags in zip(
                self._slot, self._user, self._level, self._flags
            )
            if u == user and level > 0 and not flags & _DISPLAYED
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

    def viewed_quality_by_user(self) -> Dict[int, float]:
        """Mean viewed quality per user, in user order.

        "Viewed quality" follows the experiment's convention: the
        allocated level when the frame was displayed, 0 otherwise —
        averaged over the user's records.
        """
        totals: Dict[int, Tuple[float, int]] = {}
        for user, level, flags in zip(self._user, self._level, self._flags):
            quality = float(level) if flags & _DISPLAYED else 0.0
            total, count = totals.get(user, (0.0, 0))
            totals[user] = (total + quality, count + 1)
        return {
            user: total / count for user, (total, count) in sorted(totals.items())
        }

    def summary(self) -> Dict[str, float]:
        """Aggregate counters across all records."""
        if not len(self):
            raise ConfigurationError("no telemetry recorded yet")
        total = len(self)
        transmitted = [i for i, level in enumerate(self._level) if level > 0]
        displayed = sum(1 for i in transmitted if self._flags[i] & _DISPLAYED)
        return {
            "records": float(total),
            "transmit_fraction": len(transmitted) / total,
            "display_fraction": (
                displayed / len(transmitted) if transmitted else 0.0
            ),
            "mean_demand_mbps": (
                sum(self._demand[i] for i in transmitted) / len(transmitted)
                if transmitted
                else 0.0
            ),
            "mean_achieved_mbps": (
                sum(self._achieved[i] for i in transmitted) / len(transmitted)
                if transmitted
                else 0.0
            ),
        }

    def save_csv(self, path: PathLike) -> None:
        """Write all records as CSV with a header row."""
        import csv

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(FIELDS)
            for i in range(len(self)):
                writer.writerow(self._row(i).as_row())

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
        for i in range(len(self)):
            handle.write(json.dumps(self._row(i).as_dict()) + "\n")

    def save_jsonl(self, path: PathLike) -> None:
        """:meth:`to_jsonl` to a file path."""
        with open(path, "w", encoding="utf-8") as handle:
            self.to_jsonl(handle)

    @classmethod
    def load_jsonl(cls, path: PathLike) -> "Telemetry":
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
        for column in self._columns():
            del column[:]


def _refuse_out_of_range(record: SlotUserRecord) -> None:
    for field, low, high in (
        ("slot", _INT32_MIN, _INT32_MAX),
        ("user", _INT32_MIN, _INT32_MAX),
        ("level", 0, LEVEL_MAX),
    ):
        value = getattr(record, field)
        if not low <= value <= high:
            raise ObservabilityError(
                f"telemetry field {field!r} must be in [{low}, {high}], "
                f"got {value!r}"
            )


def _parse_json_line(line: str, number: int) -> Dict[str, object]:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ObservabilityError(
            f"line {number}: invalid JSON: {exc}"
        ) from exc
    if not isinstance(raw, dict):
        raise ObservabilityError(f"line {number}: expected an object")
    return raw

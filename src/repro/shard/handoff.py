"""The versioned session-handoff blob and its capture/install codec.

A live migration moves one session between shards without losing QoE
state: the source shard's coordinator hook captures the seat into a
*handoff blob* — a JSON-friendly, versioned document holding the
session identity, its resume token, the wire counters, the full
per-seat planning state (:meth:`repro.system.server.EdgeServer.
export_seat`), the seat's viewed-quality sum and count, and its
telemetry records when the source keeps them (lockstep serving only)
— and the target shard installs it onto a parked seat that the
client then claims through the ordinary resume path.

Capture and install use only public serve APIs.  A blob never leaves
the process that captured it, so ``version`` gates one schema: a blob
of any other version is rejected rather than guessed at.  Telemetry
records keep their *source* slot numbers (each shard has its own slot
timeline); only the seat index is rewritten.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Mapping, Tuple

from repro.errors import ConfigurationError, ObservabilityError
from repro.serve.server import VrServeServer
from repro.serve.sessions import Session
from repro.system.telemetry import LEVEL_MAX, SlotUserRecord

#: Schema tag of the handoff blob.
HANDOFF_SCHEMA_KIND = "repro.shard.handoff"
#: The one version this build writes and installs.  It carries the
#: stable per-session ``trace_id``, the scheduler's QoE ledger as its
#: five running accumulators (a fixed size) and ``viewed_quality``, the
#: seat's viewed-quality ``sum`` and record ``count``, because a paced
#: source keeps no records to derive them from.
HANDOFF_SCHEMA_VERSION = 4

#: Session wire counters carried across a migration, in blob order.
COUNTER_FIELDS = (
    "planned_slots",
    "missed_reports",
    "late_reports",
    "dropped_frames",
    "resumes",
    "corrupt_frames",
)


def _blob_int(blob: Mapping[str, Any], key: str) -> int:
    value = blob.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"handoff field {key!r} must be an int, got {value!r}"
        )
    return value


def _blob_str(blob: Mapping[str, Any], key: str) -> str:
    value = blob.get(key)
    if not isinstance(value, str):
        raise ConfigurationError(
            f"handoff field {key!r} must be a string, got {value!r}"
        )
    return value


def _blob_float(blob: Mapping[str, Any], key: str) -> float:
    value = blob.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"handoff field {key!r} must be a number, got {value!r}"
        )
    return float(value)


def _blob_viewed_quality(blob: Mapping[str, Any]) -> Tuple[int, int]:
    """A blob's ``(sum, count)``: ints, count >= 0, 0 <= sum <= 255 count."""
    quality = blob.get("viewed_quality")
    if not isinstance(quality, Mapping):
        raise ConfigurationError(
            "handoff field 'viewed_quality' must be an object"
        )
    total = _blob_int(quality, "sum")
    count = _blob_int(quality, "count")
    if count < 0 or not 0 <= total <= LEVEL_MAX * count:
        raise ConfigurationError(
            f"handoff field 'viewed_quality' must hold 0 <= sum <= "
            f"{LEVEL_MAX} * count, got sum={total!r}, count={count!r}"
        )
    return total, count


def capture_seat(
    server: VrServeServer, session: Session, source_shard: int
) -> Dict[str, Any]:
    """Snapshot one session into a handoff blob.

    Destructive only for the seat's realized quality: its viewed-quality
    sum and count are zeroed on the source and its telemetry records
    (kept by a lockstep source only) move into the blob — they belong
    to the session, not the shard.  Everything else is a read, so a
    capture that is later abandoned leaves the source seat's planning
    state intact.
    """
    seat = session.seat
    quality_sum, quality_count = server.metrics.take_viewed_quality(seat)
    return {
        "kind": HANDOFF_SCHEMA_KIND,
        "version": HANDOFF_SCHEMA_VERSION,
        "client": session.client,
        "token": session.token,
        "trace_id": session.trace_id,
        "guideline_mbps": session.guideline_mbps,
        "source_shard": source_shard,
        "source_seat": seat,
        "source_slot": server.slot_loop.slots_run,
        "joined_slot": session.joined_slot,
        "counters": {
            field: getattr(session, field) for field in COUNTER_FIELDS
        },
        "seat": server.edge.export_seat(seat),
        "viewed_quality": {"sum": quality_sum, "count": quality_count},
        "telemetry": [
            record.as_dict()
            for record in server.metrics.telemetry.extract_user(seat)
        ],
    }


def install_seat(server: VrServeServer, blob: Mapping[str, Any]) -> Session:
    """Install a handoff blob onto the target shard.

    The session lands *parked* (detached, no transport) on the lowest
    free seat, carrying its source token; the client re-attaches
    through the ordinary resume path and is excluded from the report
    barrier until its first plan frame arrives, so a migration can
    never be charged a missed report.  Raises
    :class:`~repro.errors.ConfigurationError` on a schema mismatch, a
    record that :class:`~repro.system.telemetry.Telemetry` cannot hold,
    malformed ``viewed_quality`` or a full shard, before any state
    is touched; a malformed ``seat`` state is refused with the
    provisional admission rolled back.  The seat's viewed-quality sum
    and count are added to the target seat's, and its records (if the
    blob carries any) are ingested under the new seat index.
    """
    if blob.get("kind") != HANDOFF_SCHEMA_KIND:
        raise ConfigurationError(
            f"not a handoff blob: kind={blob.get('kind')!r} "
            f"(expected {HANDOFF_SCHEMA_KIND!r})"
        )
    version = blob.get("version")
    if version != HANDOFF_SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported handoff version {version!r} "
            f"(this build speaks {HANDOFF_SCHEMA_VERSION})"
        )
    client = _blob_str(blob, "client")
    token = _blob_str(blob, "token")
    trace_id = _blob_str(blob, "trace_id")
    if not token:
        raise ConfigurationError(
            "handoff blob carries an empty resume token; the client "
            "could never claim the migrated seat"
        )
    guideline = _blob_float(blob, "guideline_mbps")
    counters = blob.get("counters")
    if not isinstance(counters, Mapping):
        raise ConfigurationError("handoff field 'counters' must be an object")
    seat_state = blob.get("seat")
    if not isinstance(seat_state, Mapping):
        raise ConfigurationError("handoff field 'seat' must be an object")
    telemetry = blob.get("telemetry")
    if not isinstance(telemetry, list):
        raise ConfigurationError("handoff field 'telemetry' must be a list")
    counter_values = {
        field: _blob_int(counters, field) for field in COUNTER_FIELDS
    }
    try:
        records = [SlotUserRecord.from_dict(raw) for raw in telemetry]
    except ObservabilityError as exc:
        raise ConfigurationError(f"handoff field 'telemetry': {exc}") from exc
    quality_sum, quality_count = _blob_viewed_quality(blob)

    slot = server.slot_loop.slots_run
    session = server.registry.install_detached(
        client,
        guideline_mbps=guideline,
        joined_slot=slot,
        token=token,
        slot=slot,
        trace_id=trace_id,
    )
    try:
        server.edge.import_seat(session.seat, seat_state)
    except ConfigurationError:
        # Undo the provisional admission so a malformed blob cannot
        # strand a half-installed parked seat on the target.
        server.registry.release(session.seat)
        server.edge.reset_user(session.seat)
        raise
    for field, value in counter_values.items():
        setattr(session, field, value)
    server.metrics.telemetry.ingest(
        [replace(record, user=session.seat) for record in records]
    )
    server.metrics.record_viewed_quality(
        session.seat, quality_sum, quality_count
    )
    server.metrics.record_migration_in()
    return session

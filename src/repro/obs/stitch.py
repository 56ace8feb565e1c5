"""Cross-shard trace stitching: per-session timelines from N streams.

Every shard of a cluster writes its *own* span stream (see
:func:`repro.shard.config.derive_trace_path`), and the coordinator
writes a third stream holding one ``migration`` span per handoff.
None of those files alone answers the question a migration
post-mortem starts with — *what did this one session experience?* —
because the session's per-slot ``user`` spans are scattered across
the shard files under its stable trace identity.

The stitcher inverts that layout.  It walks every stream, groups the
``user`` spans by their ``trace`` attribute (minted once at admission,
carried — never re-minted — through resume and handoff), folds each
shard's samples into contiguous :class:`ShardSegment` windows, and
interleaves the coordinator's ``migration`` spans as explicit bridges
between the source and target segments.  The result is one
:class:`SessionTimeline` per session, ordered by the handoff chain, in
which a migrated session reads as: segment on shard A, ``migration``
bridge, segment on shard B.

Slot numbers within a segment come from that shard's own counter.
Shards start from one readiness gate but then step independently, so
a slot number says nothing about order *across* shards; only the
coordinator's handoff sequence does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.obs.spans import Span

#: ``name`` of the coordinator spans that bridge two shard segments.
MIGRATION_SPAN_NAME = "migration"


@dataclass(frozen=True)
class UserSlotSample:
    """One seat-slot observation of a session on one shard."""

    shard: int
    slot: int
    seat: int
    level: int


@dataclass(frozen=True)
class MigrationEvent:
    """One handoff, as recorded by the coordinator's trace stream."""

    slot: int
    source_shard: int
    target_shard: int
    reason: str
    seq: int
    client: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "migration",
            "slot": self.slot,
            "source_shard": self.source_shard,
            "target_shard": self.target_shard,
            "reason": self.reason,
            "seq": self.seq,
            "client": self.client,
        }


@dataclass(frozen=True)
class ShardSegment:
    """A session's contiguous residence window on one shard."""

    shard: int
    first_slot: int
    last_slot: int
    user_slots: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "segment",
            "shard": self.shard,
            "first_slot": self.first_slot,
            "last_slot": self.last_slot,
            "user_slots": self.user_slots,
        }


@dataclass(frozen=True)
class SessionTimeline:
    """One session's cross-shard story, ordered by the handoff chain.

    ``migrations`` are in handoff (``seq``) order.
    """

    trace: str
    client: str
    segments: Tuple[ShardSegment, ...]
    migrations: Tuple[MigrationEvent, ...]

    @property
    def shards(self) -> Tuple[int, ...]:
        """Shards the session lived on, in residence order."""
        return tuple(segment.shard for segment in self.segments)

    def events(self) -> List[Dict[str, object]]:
        """Segments and migration bridges in handoff-chain order.

        Each shard counts its own slots, so slot numbers cannot order
        events across shards; the handoff chain can.  A bridge follows
        the segment on its source shard and precedes the segment on
        its target.  Segments the chain never names keep their
        residence order after it.
        """
        unplaced = {segment.shard: segment for segment in self.segments}
        events: List[Dict[str, object]] = []

        def place(shard: int) -> None:
            segment = unplaced.pop(shard, None)
            if segment is not None:
                events.append(segment.to_dict())

        for migration in self.migrations:
            place(migration.source_shard)
            events.append(migration.to_dict())
            place(migration.target_shard)
        for segment in self.segments:
            place(segment.shard)
        return events

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace": self.trace,
            "client": self.client,
            "shards": list(self.shards),
            "events": self.events(),
        }


def _as_int(value: object, default: int = -1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        return default
    return value


def collect_user_samples(spans: Sequence[Span]) -> List[Tuple[str, UserSlotSample]]:
    """``(trace, sample)`` pairs from one shard's slot-span stream.

    ``user`` spans without a trace identity (pre-v2 streams, plain
    single-server runs before admission) are skipped — they cannot be
    attributed to a session.
    """
    samples: List[Tuple[str, UserSlotSample]] = []
    for root in spans:
        if root.name != "slot":
            continue
        slot = _as_int(root.attrs.get("slot"))
        shard = _as_int(root.attrs.get("shard"))
        for span in root.walk():
            if span.name != "user":
                continue
            trace = span.attrs.get("trace")
            if not isinstance(trace, str) or not trace:
                continue
            samples.append(
                (
                    trace,
                    UserSlotSample(
                        shard=shard,
                        slot=slot,
                        seat=_as_int(span.attrs.get("seat")),
                        level=_as_int(span.attrs.get("level"), 0),
                    ),
                )
            )
    return samples


def collect_migrations(spans: Sequence[Span]) -> List[Tuple[str, MigrationEvent]]:
    """``(trace, migration)`` pairs from the coordinator's stream."""
    events: List[Tuple[str, MigrationEvent]] = []
    for span in spans:
        if span.name != MIGRATION_SPAN_NAME:
            continue
        trace = span.attrs.get("trace")
        if not isinstance(trace, str) or not trace:
            continue
        client = span.attrs.get("client")
        events.append(
            (
                trace,
                MigrationEvent(
                    slot=_as_int(span.attrs.get("slot")),
                    source_shard=_as_int(span.attrs.get("source_shard")),
                    target_shard=_as_int(span.attrs.get("target_shard")),
                    reason=str(span.attrs.get("reason", "")),
                    seq=_as_int(span.attrs.get("seq"), 0),
                    client=client if isinstance(client, str) else "",
                ),
            )
        )
    return events


def _segments(
    samples: List[UserSlotSample], migrations: List[MigrationEvent]
) -> Tuple[ShardSegment, ...]:
    """Fold one session's samples into ordered residence windows.

    Samples group per shard.  Windows order by the migration chain
    (the handoff source precedes its target), because each shard's
    slot counter is its own; shards off the chain follow, by first
    slot.
    """
    by_shard: Dict[int, List[UserSlotSample]] = {}
    for sample in samples:
        by_shard.setdefault(sample.shard, []).append(sample)

    # Chain order: source before target, in handoff sequence.
    chain_rank: Dict[int, int] = {}
    for migration in sorted(migrations, key=lambda m: m.seq):
        for shard in (migration.source_shard, migration.target_shard):
            if shard not in chain_rank:
                chain_rank[shard] = len(chain_rank)

    segments = [
        ShardSegment(
            shard=shard,
            first_slot=min(s.slot for s in shard_samples),
            last_slot=max(s.slot for s in shard_samples),
            user_slots=len(shard_samples),
        )
        for shard, shard_samples in by_shard.items()
    ]
    segments.sort(
        key=lambda seg: (
            chain_rank.get(seg.shard, len(chain_rank)),
            seg.first_slot,
            seg.shard,
        )
    )
    return tuple(segments)


def stitch_spans(
    streams: Sequence[Sequence[Span]],
) -> List[SessionTimeline]:
    """Join N span streams into per-session timelines.

    ``streams`` holds every file's parsed spans — shard streams and
    the coordinator stream in any order; the span *names* say which
    is which.  Timelines come back sorted by trace identity so the
    output is stable across input orderings.
    """
    samples: Dict[str, List[UserSlotSample]] = {}
    migrations: Dict[str, List[MigrationEvent]] = {}
    clients: Dict[str, str] = {}
    for stream in streams:
        for trace, sample in collect_user_samples(stream):
            samples.setdefault(trace, []).append(sample)
        for trace, event in collect_migrations(stream):
            migrations.setdefault(trace, []).append(event)
            if event.client and trace not in clients:
                clients[trace] = event.client

    timelines: List[SessionTimeline] = []
    for trace in sorted(set(samples) | set(migrations)):
        trace_migrations = sorted(
            migrations.get(trace, []), key=lambda m: m.seq
        )
        timelines.append(
            SessionTimeline(
                trace=trace,
                client=clients.get(trace, ""),
                segments=_segments(samples.get(trace, []), trace_migrations),
                migrations=tuple(trace_migrations),
            )
        )
    return timelines


def format_timeline(timeline: SessionTimeline) -> List[str]:
    """Human-readable lines for ``repro obs stitch`` text output."""
    label = timeline.client or "<unattributed>"
    lines = [f"session {label} trace={timeline.trace}"]
    for event in timeline.events():
        if event["kind"] == "segment":
            lines.append(
                f"  shard {event['shard']}: slots "
                f"{event['first_slot']}..{event['last_slot']} "
                f"({event['user_slots']} user-slot(s))"
            )
        else:
            lines.append(
                f"  migration @slot {event['slot']}: shard "
                f"{event['source_shard']} -> shard {event['target_shard']} "
                f"({event['reason']})"
            )
    return lines

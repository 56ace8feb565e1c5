"""The fault injector: one-shot delivery of scheduled faults.

A :class:`FaultInjector` wraps a :class:`~repro.faults.schedule.FaultSchedule`
for one run.  Injection points (the serve slot loop, connection
handlers, and load-generator clients) ask it *"does fault K fire for
seat S at slot T?"*; each scheduled event is handed out exactly once,
every hand-out is appended to an ordered ``injected`` timeline (the
thing chaos tests compare across runs), and — when a metrics registry
is attached — counted under ``repro_faults_injected_total{kind=...}``.

The frame-mangling helpers (:func:`corrupt_frame_bytes`,
:func:`truncate_frame_bytes`) are deterministic functions of the
frame bytes, so a corrupted wire is as reproducible as a clean one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.schedule import FAULT_KINDS, FaultEvent, FaultSchedule
from repro.obs.registry import MetricFamily, MetricsRegistry

#: Size of the wire header in ``repro.serve.protocol2`` (kept local so
#: the fault layer never imports the serve package it is injected
#: into).
_HEADER_SIZE = 8

#: Bytes of ``0xFF`` stamped into a body: ten continuation bytes
#: overflow the varint limit no matter where the first field read
#: lands, so two extra cover a leading fixed-width byte or two.
_STAMP = 12


class FaultInjector:
    """Hands out each scheduled fault exactly once.

    A ``None`` schedule builds a permanently-quiet injector, so the
    hot paths can hold one unconditionally and stay branch-cheap.
    """

    def __init__(
        self,
        schedule: Optional[FaultSchedule] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._pending: Dict[Tuple[int, int, str], FaultEvent] = (
            {event.key: event for event in schedule.events}
            if schedule is not None
            else {}
        )
        #: Events handed out, in hand-out order: the fault timeline.
        self.injected: List[FaultEvent] = []
        self._counts: Dict[str, int] = {}
        self._family: Optional[MetricFamily] = None
        if registry is not None:
            self._family = registry.counter_family(
                "repro_faults_injected_total",
                "Scheduled faults injected, by kind",
                ("kind",),
            )

    @property
    def enabled(self) -> bool:
        """True while any scheduled event has not fired yet."""
        return bool(self._pending)

    @property
    def counts(self) -> Dict[str, int]:
        """Injected-event counts by kind (insertion-ordered)."""
        return dict(self._counts)

    def timeline(self) -> Tuple[Tuple[int, int, str], ...]:
        """The injected events' keys, in hand-out order."""
        return tuple(event.key for event in self.injected)

    def _fire(self, event: FaultEvent) -> FaultEvent:
        del self._pending[event.key]
        self.injected.append(event)
        self._counts[event.kind] = self._counts.get(event.kind, 0) + 1
        if self._family is not None:
            self._family.counter_child(kind=event.kind).inc()
        return event

    def take(self, slot: int, seat: int, kind: str) -> Optional[FaultEvent]:
        """Fire the ``(slot, seat, kind)`` event if it is scheduled."""
        if kind not in FAULT_KINDS:
            raise ConfigurationError(f"unknown fault kind {kind!r}")
        event = self._pending.get((slot, seat, kind))
        return self._fire(event) if event is not None else None

    def take_kind(self, slot: int, kind: str) -> List[FaultEvent]:
        """Fire every event of one kind at ``slot``, seat-ordered."""
        if kind not in FAULT_KINDS:
            raise ConfigurationError(f"unknown fault kind {kind!r}")
        keys = sorted(
            key for key in self._pending
            if key[0] == slot and key[2] == kind
        )
        return [self._fire(self._pending[key]) for key in keys]


def corrupt_frame_bytes(frame: bytes) -> bytes:
    """Damage a frame's body; the header/length framing stays intact.

    The result is a frame the receiving codec *reads* completely
    (framing is preserved) but cannot decode — the case the server's
    corrupt-frame quarantine must absorb without killing the session.

    Frames carry no checksum, so a single flipped bit can decode as a
    structurally valid — merely wrong — value; the body instead gets
    an overlong-varint stamp at its start, which the decoder is
    contractually required to quarantine wherever its first field
    read lands.
    """
    body_len = len(frame) - _HEADER_SIZE
    if body_len <= 0:
        raise ConfigurationError(
            f"cannot corrupt a {len(frame)}-byte frame (no body)"
        )
    mangled = bytearray(frame)
    end = _HEADER_SIZE + min(body_len, _STAMP)
    for position in range(_HEADER_SIZE, end):
        mangled[position] = 0xFF
    return bytes(mangled)


def truncate_frame_bytes(frame: bytes) -> bytes:
    """Cut a frame short mid-body (the header's length promises more).

    The whole header survives and at least one body byte is kept and
    at least one is cut.  The receiver blocks on the missing bytes
    until the injecting side closes the connection, then surfaces a
    mid-frame transport error — the garbled-wire shape the reconnect
    machinery must recover from.
    """
    body_len = len(frame) - _HEADER_SIZE
    if body_len < 2:
        raise ConfigurationError(
            f"cannot truncate a {len(frame)}-byte frame mid-body"
        )
    return frame[: _HEADER_SIZE + body_len // 2]

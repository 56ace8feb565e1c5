"""The binary wire codec: the one framing of every serving connection.

This module packs the nine message types of
:mod:`repro.serve.protocol` into struct-framed binary frames, from
the first byte of a connection to its last::

    0      1      2      3      4              8
    ┌──────┬──────┬──────┬──────┬──────────────┐
    │magic │codec │ type │flags │ body length  │ body ...
    │ 0xB2 │  2   │ u8   │ u8   │ u32 (BE)     │
    └──────┴──────┴──────┴──────┴──────────────┘

* integers are unsigned LEB128 varints (``zigzag`` for signed
  fields), strings are varint-length-prefixed UTF-8, floats are
  big-endian IEEE-754 doubles — every message field round-trips
  bit-identically;
* client pose uploads are **delta-encoded against the last acked
  pose**: each plan frame carries the highest report slot the server
  decoded on that channel, and the client XORs the raw f64 bit
  patterns of its pose against the pose it sent for that slot.  XOR
  deltas are lossless (decode is ``base_bits ^ delta_bits``) and a
  corrupt report can never desynchronise the stream: the server only
  ever acks slots it decoded, so the client's next delta base is one
  the server is guaranteed to hold;
* plan frames for every seat of a multiplexed connection travel in
  one ``PLAN_BATCH`` frame per slot, each entry length-prefixed so a
  corrupt entry costs exactly that entry, and report frames batch the
  same way upstream.

The JOIN/WELCOME handshake travels in these frames too, so a
connection never switches framing.  Anything whose first byte is not
:data:`HEADER_MAGIC` — a legacy length-prefixed JSON join, say — is
a framing error.

Framing errors (bad magic, oversized length) are
:class:`~repro.errors.TransportError` — the stream is lost, the
connection must go down.  Body errors inside an intact frame are
quarantined: :func:`read_units` returns them as
:class:`WireFrame` entries with ``message=None`` so the server can
charge exactly one report and keep the session.
"""

from __future__ import annotations

import asyncio
import math
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import FrameCorruptError, TransportError
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    Bye,
    EndOfRun,
    JoinRequest,
    Ready,
    Redirect,
    Reject,
    ServeMessage,
    SlotReport,
    TilePlan,
    Welcome,
)

#: The codec generation byte of every frame header.
CODEC_BINARY = 2

#: First header byte of every frame, and so of every connection.
HEADER_MAGIC = 0xB2

#: Header: magic, codec generation, frame type, flags, body length.
HEADER = struct.Struct("!BBBBI")

#: Flags bit 0: the body starts with a varint channel id (the seat,
#: or the client-chosen virtual-channel id for JOIN/WELCOME frames on
#: a multiplexed connection).
FLAG_CHANNEL = 0x01

#: Binary frame types, one per message kind plus the two batch forms.
TYPE_JOIN = 1
TYPE_WELCOME = 2
TYPE_REJECT = 3
TYPE_REDIRECT = 4
TYPE_READY = 5
TYPE_PLAN = 6
TYPE_REPORT = 7
TYPE_END = 8
TYPE_BYE = 9
TYPE_PLAN_BATCH = 10
TYPE_REPORT_BATCH = 11

#: Soft per-frame budget for batch frames: a batch that would grow
#: past this is split into several frames, so the 1 MiB hard cap is
#: enforced by construction rather than by a mid-slot exception.
BATCH_SOFT_BYTES = MAX_FRAME_BYTES // 2

#: Decoded/sent pose memory per channel, in report slots.  Both rings
#: evict their oldest slot past this size, in step, so the base a
#: sender picks (the newest slot its peer acked) is still in the
#: decoder's ring; a delta against an evicted base decodes as corrupt.
#: The ack loop keeps that base within one in-flight plan, so 256 slots
#: is head-room, not a working set.
_POSE_MEMORY_SLOTS = 256

_F64 = struct.Struct("!d")
_U64 = struct.Struct("!Q")
#: Whole-pose structs: six doubles and their raw bit patterns, packed
#: in one call (the per-component path dominates the codec's CPU cost
#: otherwise).
_POSE_F = struct.Struct("!6d")
_POSE_U = struct.Struct("!6Q")

_VARINT_MAX_BYTES = 10


def pose_bits(value: float) -> int:
    """Raw IEEE-754 bit pattern of one pose component."""
    return int(_U64.unpack(_F64.pack(value))[0])


def bits_pose(bits: int) -> float:
    """Inverse of :func:`pose_bits`."""
    return float(_F64.unpack(_U64.pack(bits))[0])


def _check_finite(value: float, what: str) -> float:
    # NaN/Infinity would poison downstream telemetry; refuse them on
    # encode so no peer ever has to decide what they mean.
    if not math.isfinite(value):
        raise TransportError(f"cannot encode non-finite {what}: {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Primitive writers
# ---------------------------------------------------------------------------


def _put_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise TransportError(f"varint cannot encode negative {value}")
    if value >= 1 << 64:
        raise TransportError(f"varint cannot encode {value} (over 64 bits)")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _put_zigzag(out: bytearray, value: int) -> None:
    _put_varint(out, (value << 1) ^ (value >> 63) if -(1 << 63) <= value < 1 << 63
                else _zigzag_overflow(value))


def _zigzag_overflow(value: int) -> int:
    raise TransportError(f"zigzag cannot encode {value} (over 64 bits)")


def _put_str(out: bytearray, value: str) -> None:
    data = value.encode("utf-8")
    _put_varint(out, len(data))
    out += data


def _put_f64(out: bytearray, value: float, what: str) -> None:
    out += _F64.pack(_check_finite(value, what))


def _put_bool(out: bytearray, value: bool) -> None:
    out.append(1 if value else 0)


def _put_pose(out: bytearray, pose: Sequence[float], what: str) -> None:
    if len(pose) != 6:
        raise TransportError(f"a pose has 6 components, got {len(pose)}")
    for component in pose:
        _check_finite(component, what)
    out += _POSE_F.pack(*pose)


def _put_int_tuple(out: bytearray, values: Sequence[int]) -> None:
    # Inlined zigzag varints: this is the hottest writer (video id and
    # ack lists every slot), so the per-value function calls are paid
    # once here instead of twice per element.
    _put_varint(out, len(values))
    append = out.append
    for value in values:
        if not -(1 << 63) <= value < 1 << 63:
            _zigzag_overflow(value)
        encoded = (value << 1) ^ (value >> 63)
        while encoded > 0x7F:
            append((encoded & 0x7F) | 0x80)
            encoded >>= 7
        append(encoded)


def _put_float_tuple(out: bytearray, values: Sequence[float], what: str) -> None:
    _put_varint(out, len(values))
    for value in values:
        _check_finite(value, what)
    if values:
        out += struct.pack(f"!{len(values)}d", *values)


# ---------------------------------------------------------------------------
# Primitive reader
# ---------------------------------------------------------------------------


class _Cursor:
    """Sequential reader over one frame body.

    Every underrun, overlong varint, or length that promises more
    bytes than the frame holds raises
    :class:`~repro.errors.FrameCorruptError` — the framing survived,
    so the caller quarantines the frame and keeps the stream.
    """

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self._data = data
        self._pos = pos

    @property
    def pos(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def done(self) -> bool:
        return self._pos >= len(self._data)

    def u8(self) -> int:
        if self.remaining < 1:
            raise FrameCorruptError("frame body truncated (u8)")
        value = self._data[self._pos]
        self._pos += 1
        return value

    def f64(self) -> float:
        if self.remaining < 8:
            raise FrameCorruptError("frame body truncated (f64)")
        (value,) = _F64.unpack_from(self._data, self._pos)
        self._pos += 8
        return float(value)

    def varint(self) -> int:
        data = self._data
        pos = self._pos
        end = len(data)
        result = 0
        shift = 0
        for _ in range(_VARINT_MAX_BYTES):
            if pos >= end:
                raise FrameCorruptError("frame body truncated (varint)")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                if result >= 1 << 64:
                    raise FrameCorruptError(
                        f"varint overflow: {result} exceeds 64 bits"
                    )
                self._pos = pos
                return result
            shift += 7
        raise FrameCorruptError(
            f"varint overflow: more than {_VARINT_MAX_BYTES} bytes"
        )

    def zigzag(self) -> int:
        raw = self.varint()
        return (raw >> 1) ^ -(raw & 1)

    def str_(self) -> str:
        length = self.varint()
        if length > self.remaining:
            raise FrameCorruptError(
                f"string length {length} exceeds remaining {self.remaining}"
            )
        data = self._data[self._pos:self._pos + length]
        self._pos += length
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameCorruptError(f"malformed UTF-8 string: {exc}") from exc

    def bool_(self) -> bool:
        value = self.u8()
        if value > 1:
            raise FrameCorruptError(f"boolean must be 0 or 1, got {value}")
        return bool(value)

    def pose(self) -> Tuple[float, ...]:
        if self.remaining < 48:
            raise FrameCorruptError("frame body truncated (pose)")
        values = _POSE_F.unpack_from(self._data, self._pos)
        self._pos += 48
        return tuple(float(v) for v in values)

    def int_tuple(self) -> Tuple[int, ...]:
        count = self.varint()
        data = self._data
        pos = self._pos
        end = len(data)
        if count > end - pos:
            raise FrameCorruptError(
                f"list count {count} exceeds remaining {end - pos} bytes"
            )
        # Inlined zigzag varints (the decode mirror of _put_int_tuple):
        # id lists are the hottest field in every steady-state frame.
        values: List[int] = []
        append = values.append
        for _ in range(count):
            raw = 0
            shift = 0
            while True:
                if pos >= end:
                    raise FrameCorruptError("frame body truncated (varint)")
                byte = data[pos]
                pos += 1
                raw |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
                if shift >= 7 * _VARINT_MAX_BYTES:
                    raise FrameCorruptError(
                        f"varint overflow: more than {_VARINT_MAX_BYTES} "
                        "bytes"
                    )
            if raw >= 1 << 64:
                raise FrameCorruptError(
                    f"varint overflow: {raw} exceeds 64 bits"
                )
            append((raw >> 1) ^ -(raw & 1))
        self._pos = pos
        return tuple(values)

    def float_tuple(self) -> Tuple[float, ...]:
        count = self.varint()
        if count * 8 > self.remaining:
            raise FrameCorruptError(
                f"float list count {count} exceeds remaining "
                f"{self.remaining} bytes"
            )
        if count == 0:
            return ()
        values = struct.unpack_from(f"!{count}d", self._data, self._pos)
        self._pos += count * 8
        return tuple(float(v) for v in values)

    def expect_done(self) -> None:
        if not self.done():
            raise FrameCorruptError(
                f"{self.remaining} trailing byte(s) after frame body"
            )

    def skip(self, length: int) -> None:
        """Advance past ``length`` already-validated bytes."""
        self._pos += length


# ---------------------------------------------------------------------------
# The stateful per-connection codec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WireFrame:
    """One decoded wire unit: ``message=None`` marks a quarantined
    entry (body corrupt inside intact framing) on ``channel``."""

    channel: int
    message: Optional[ServeMessage]


class BinaryChannelCodec:
    """Encode/decode state for one binary connection (both directions).

    The instance owns the pose-delta machinery: which report poses
    this side sent (awaiting ack), which the peer acked, and which
    the peer's reports this side decoded (the acks it advertises).
    State is keyed by channel so one multiplexed connection carries
    an independent delta stream per seat.  A fresh connection — and
    therefore every resume — starts with no state: the first report
    on any channel is always absolute.
    """

    def __init__(self) -> None:
        #: Report poses we sent, awaiting ack: channel -> slot -> the
        #: pose as its 48 ``_POSE_F`` bytes (what the XOR delta uses).
        self._sent_poses: Dict[int, Dict[int, bytes]] = {}
        #: Highest report slot the peer acked per channel.
        self._peer_ack: Dict[int, int] = {}
        #: Report poses we decoded: channel -> slot -> ``_POSE_F`` bytes.
        self._decoded_poses: Dict[int, Dict[int, bytes]] = {}
        #: Highest report slot we decoded per channel (our next ack).
        self._decoded_last: Dict[int, int] = {}

    # -- introspection helpers (tests) ---------------------------------
    def acked_slot(self, channel: int) -> int:
        """Highest report slot decoded on ``channel`` (-1: none)."""
        return self._decoded_last.get(channel, -1)

    def peer_acked_slot(self, channel: int) -> int:
        """Highest report slot the peer has acked (-1: none)."""
        return self._peer_ack.get(channel, -1)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, message: ServeMessage, channel: int = -1) -> bytes:
        """Frame one message, updating delta/ack state as needed."""
        body = bytearray()
        flags = 0
        if channel >= 0:
            flags |= FLAG_CHANNEL
            _put_varint(body, channel)
        if isinstance(message, JoinRequest):
            frame_type = TYPE_JOIN
            _put_str(body, message.client)
            _put_zigzag(body, message.version)
            _put_str(body, message.token)
        elif isinstance(message, Welcome):
            frame_type = TYPE_WELCOME
            self._encode_welcome(body, message)
        elif isinstance(message, Reject):
            frame_type = TYPE_REJECT
            _put_str(body, message.code)
            _put_str(body, message.reason)
            _put_zigzag(body, message.capacity)
        elif isinstance(message, Redirect):
            frame_type = TYPE_REDIRECT
            _put_str(body, message.host)
            _put_zigzag(body, message.port)
            _put_zigzag(body, message.shard)
            _put_str(body, message.reason)
        elif isinstance(message, Ready):
            frame_type = TYPE_READY
            _put_pose(body, message.pose, "ready pose")
        elif isinstance(message, TilePlan):
            frame_type = TYPE_PLAN
            self._encode_plan_body(body, channel, message)
        elif isinstance(message, SlotReport):
            frame_type = TYPE_REPORT
            self._encode_report_body(body, channel, message)
        elif isinstance(message, EndOfRun):
            frame_type = TYPE_END
            _put_zigzag(body, message.slots)
            _put_str(body, message.reason)
            summary = dict(message.summary)
            _put_varint(body, len(summary))
            for name in sorted(summary):
                _put_str(body, name)
                _put_f64(body, summary[name], f"summary[{name}]")
        elif isinstance(message, Bye):
            frame_type = TYPE_BYE
            _put_str(body, message.reason)
        else:
            raise TransportError(
                f"cannot binary-encode {type(message).__name__}"
            )
        return self._frame(frame_type, flags, bytes(body))

    def encode_plan_batch(
        self, entries: Sequence[Tuple[int, TilePlan]]
    ) -> List[bytes]:
        """One or more ``PLAN_BATCH`` frames covering ``entries``.

        Entries are ``(channel, plan)`` pairs; each is length-prefixed
        inside the batch so a corrupt entry costs only itself.  The
        batch splits at :data:`BATCH_SOFT_BYTES` so no frame can
        approach the hard cap.
        """
        return self._encode_batch(
            TYPE_PLAN_BATCH, entries, self._encode_plan_body
        )

    def encode_report_batch(
        self, entries: Sequence[Tuple[int, SlotReport]]
    ) -> List[bytes]:
        """One or more ``REPORT_BATCH`` frames covering ``entries``."""
        return self._encode_batch(
            TYPE_REPORT_BATCH, entries, self._encode_report_body
        )

    def _encode_batch(
        self,
        frame_type: int,
        entries: Sequence[Tuple[int, object]],
        encode_body: "Callable[[bytearray, int, object], None]",
    ) -> List[bytes]:
        frames: List[bytes] = []
        chunk: List[bytes] = []
        chunk_bytes = 0
        for channel, message in entries:
            if channel < 0:
                raise TransportError(
                    "batch entries need a channel (seat) id, got "
                    f"{channel}"
                )
            body = bytearray()
            _put_varint(body, channel)
            encode_body(body, channel, message)
            entry = bytearray()
            _put_varint(entry, len(body))
            entry += body
            if chunk and chunk_bytes + len(entry) > BATCH_SOFT_BYTES:
                frames.append(self._finish_batch(frame_type, chunk))
                chunk, chunk_bytes = [], 0
            chunk.append(bytes(entry))
            chunk_bytes += len(entry)
        if chunk:
            frames.append(self._finish_batch(frame_type, chunk))
        return frames

    def _finish_batch(self, frame_type: int, chunk: List[bytes]) -> bytes:
        body = bytearray()
        _put_varint(body, len(chunk))
        for entry in chunk:
            body += entry
        return self._frame(frame_type, 0, bytes(body))

    def _encode_welcome(self, body: bytearray, message: Welcome) -> None:
        _put_zigzag(body, message.seat)
        _put_zigzag(body, message.version)
        _put_f64(body, message.slot_s, "slot_s")
        _put_zigzag(body, message.num_tx_slots)
        _put_f64(body, message.guideline_mbps, "guideline_mbps")
        _put_zigzag(body, message.level_count)
        _put_f64(body, message.world_size_m, "world_size_m")
        _put_f64(body, message.world_cell_m, "world_cell_m")
        _put_f64(body, message.margin_deg, "margin_deg")
        _put_zigzag(body, message.cell_tolerance)
        _put_zigzag(body, message.client_cache_tiles)
        _put_zigzag(body, message.num_decoders)
        _put_f64(body, message.decode_rate_mbps, "decode_rate_mbps")
        _put_bool(body, message.lockstep)
        _put_str(body, message.resume_token)
        _put_bool(body, message.resumed)
        _put_zigzag(body, message.shard)

    def _encode_plan_body(
        self, body: bytearray, channel: int, plan: TilePlan
    ) -> None:
        _put_zigzag(body, plan.slot)
        _put_zigzag(body, plan.level)
        if plan.predicted_pose is None:
            _put_bool(body, False)
        else:
            _put_bool(body, True)
            _put_pose(body, plan.predicted_pose, "predicted pose")
        _put_int_tuple(body, plan.video_ids)
        _put_float_tuple(body, plan.tile_bits, "tile_bits")
        _put_int_tuple(body, plan.lost_positions)
        _put_f64(body, plan.duration_s, "duration_s")
        _put_f64(body, plan.startup_delay_s, "startup_delay_s")
        _put_f64(body, plan.demand_mbps, "demand_mbps")
        _put_f64(body, plan.achieved_mbps, "achieved_mbps")
        _put_bool(body, plan.degraded)
        # Codec-level ack: the highest report slot decoded on this
        # channel (+1; 0 means "nothing decoded yet").  The peer uses
        # it as its next delta base.
        _put_varint(body, self._decoded_last.get(channel, -1) + 1)

    def _encode_report_body(
        self, body: bytearray, channel: int, report: SlotReport
    ) -> None:
        _put_zigzag(body, report.slot)
        pose = tuple(
            _check_finite(component, "report pose")
            for component in report.pose
        )
        if len(pose) != 6:
            raise TransportError(f"a pose has 6 components, got {len(pose)}")
        base_slot = self._peer_ack.get(channel, -1)
        base = (
            self._sent_poses.get(channel, {}).get(base_slot)
            if base_slot >= 0
            else None
        )
        packed = _POSE_F.pack(*pose)
        if base is not None:
            _put_bool(body, True)
            _put_varint(body, base_slot + 1)
            pose_bits6 = _POSE_U.unpack(packed)
            base_bits6 = _POSE_U.unpack(base)
            for current_bits, base_bits in zip(pose_bits6, base_bits6):
                _put_varint(body, current_bits ^ base_bits)
        else:
            _put_bool(body, False)
            body += packed
        sent = self._sent_poses.setdefault(channel, {})
        sent[report.slot] = packed
        if len(sent) > _POSE_MEMORY_SLOTS:
            del sent[min(sent)]
        _put_int_tuple(body, report.delivered_ids)
        _put_int_tuple(body, report.released_ids)
        _put_zigzag(body, report.indicator)
        _put_f64(body, report.delay_slots, "delay_slots")
        _put_f64(body, report.viewed_quality, "viewed_quality")

    def _frame(self, frame_type: int, flags: int, body: bytes) -> bytes:
        if len(body) > MAX_FRAME_BYTES:
            raise TransportError(
                f"frame too large: {len(body)} bytes > {MAX_FRAME_BYTES}"
            )
        return HEADER.pack(
            HEADER_MAGIC, CODEC_BINARY, frame_type, flags, len(body)
        ) + body

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, frame_type: int, flags: int, body: bytes) -> List[WireFrame]:
        """Decode one frame body into wire units.

        Single frames yield one unit; batch frames yield one per
        entry.  A corrupt entry inside a batch — or a corrupt single
        frame — becomes a ``message=None`` unit on its channel, so
        the caller quarantines exactly the units that were lost.
        """
        if frame_type in (TYPE_PLAN_BATCH, TYPE_REPORT_BATCH):
            return self._decode_batch(frame_type, body)
        cursor = _Cursor(body)
        channel = -1
        try:
            if flags & FLAG_CHANNEL:
                channel = cursor.varint()
            message = self._decode_single(frame_type, channel, cursor)
            cursor.expect_done()
        except FrameCorruptError:
            return [WireFrame(channel=channel, message=None)]
        return [WireFrame(channel=channel, message=message)]

    def _decode_batch(self, frame_type: int, body: bytes) -> List[WireFrame]:
        units: List[WireFrame] = []
        cursor = _Cursor(body)
        try:
            count = cursor.varint()
            if count > cursor.remaining:
                raise FrameCorruptError(
                    f"batch count {count} exceeds remaining "
                    f"{cursor.remaining} bytes"
                )
            entry_type = (
                TYPE_PLAN if frame_type == TYPE_PLAN_BATCH else TYPE_REPORT
            )
            for _ in range(count):
                length = cursor.varint()
                if length > cursor.remaining:
                    raise FrameCorruptError(
                        f"batch entry length {length} exceeds remaining "
                        f"{cursor.remaining} bytes"
                    )
                entry = _Cursor(body[cursor.pos:cursor.pos + length])
                # Advance past the entry *first*: the length prefix is
                # the batch's framing, so one corrupt entry never takes
                # its neighbours down with it.
                cursor.skip(length)
                channel = -1
                try:
                    channel = entry.varint()
                    message = self._decode_single(entry_type, channel, entry)
                    entry.expect_done()
                except FrameCorruptError:
                    units.append(WireFrame(channel=channel, message=None))
                    continue
                units.append(WireFrame(channel=channel, message=message))
            cursor.expect_done()
        except FrameCorruptError:
            # The batch's own framing broke (bad count / entry length):
            # whatever entries were already decoded stand, the rest of
            # the frame is one quarantined unit.
            units.append(WireFrame(channel=-1, message=None))
        return units

    def _decode_single(
        self, frame_type: int, channel: int, cursor: _Cursor
    ) -> ServeMessage:
        if frame_type == TYPE_JOIN:
            return JoinRequest(
                client=cursor.str_(),
                version=cursor.zigzag(),
                token=cursor.str_(),
            )
        if frame_type == TYPE_WELCOME:
            return self._decode_welcome(cursor)
        if frame_type == TYPE_REJECT:
            return Reject(
                code=cursor.str_(),
                reason=cursor.str_(),
                capacity=cursor.zigzag(),
            )
        if frame_type == TYPE_REDIRECT:
            return Redirect(
                host=cursor.str_(),
                port=cursor.zigzag(),
                shard=cursor.zigzag(),
                reason=cursor.str_(),
            )
        if frame_type == TYPE_READY:
            return Ready(pose=cursor.pose())
        if frame_type == TYPE_PLAN:
            return self._decode_plan(channel, cursor)
        if frame_type == TYPE_REPORT:
            return self._decode_report(channel, cursor)
        if frame_type == TYPE_END:
            slots = cursor.zigzag()
            reason = cursor.str_()
            count = cursor.varint()
            if count > cursor.remaining:
                raise FrameCorruptError(
                    f"summary count {count} exceeds remaining "
                    f"{cursor.remaining} bytes"
                )
            summary = {}
            for _ in range(count):
                name = cursor.str_()
                summary[name] = cursor.f64()
            return EndOfRun(slots=slots, reason=reason, summary=summary)
        if frame_type == TYPE_BYE:
            return Bye(reason=cursor.str_())
        raise FrameCorruptError(f"unknown binary frame type {frame_type}")

    def _decode_welcome(self, cursor: _Cursor) -> Welcome:
        return Welcome(
            seat=cursor.zigzag(),
            version=cursor.zigzag(),
            slot_s=cursor.f64(),
            num_tx_slots=cursor.zigzag(),
            guideline_mbps=cursor.f64(),
            level_count=cursor.zigzag(),
            world_size_m=cursor.f64(),
            world_cell_m=cursor.f64(),
            margin_deg=cursor.f64(),
            cell_tolerance=cursor.zigzag(),
            client_cache_tiles=cursor.zigzag(),
            num_decoders=cursor.zigzag(),
            decode_rate_mbps=cursor.f64(),
            lockstep=cursor.bool_(),
            resume_token=cursor.str_(),
            resumed=cursor.bool_(),
            shard=cursor.zigzag(),
        )

    def _decode_plan(self, channel: int, cursor: _Cursor) -> TilePlan:
        slot = cursor.zigzag()
        level = cursor.zigzag()
        predicted = cursor.pose() if cursor.bool_() else None
        video_ids = cursor.int_tuple()
        tile_bits = cursor.float_tuple()
        lost_positions = cursor.int_tuple()
        duration_s = cursor.f64()
        startup_delay_s = cursor.f64()
        demand_mbps = cursor.f64()
        achieved_mbps = cursor.f64()
        degraded = cursor.bool_()
        ack_plus1 = cursor.varint()
        if ack_plus1 > 0:
            acked = ack_plus1 - 1
            previous = self._peer_ack.get(channel, -1)
            if acked > previous:
                self._peer_ack[channel] = acked
                sent = self._sent_poses.get(channel)
                if sent:
                    for old in [s for s in sent if s < acked]:
                        del sent[old]
        return TilePlan(
            slot=slot,
            level=level,
            predicted_pose=predicted,
            video_ids=video_ids,
            tile_bits=tile_bits,
            lost_positions=lost_positions,
            duration_s=duration_s,
            startup_delay_s=startup_delay_s,
            demand_mbps=demand_mbps,
            achieved_mbps=achieved_mbps,
            degraded=degraded,
        )

    def _decode_report(self, channel: int, cursor: _Cursor) -> SlotReport:
        slot = cursor.zigzag()
        delta = cursor.bool_()
        if delta:
            base_slot = cursor.varint() - 1
            base = self._decoded_poses.get(channel, {}).get(base_slot)
            if base is None:
                raise FrameCorruptError(
                    f"delta report against unknown base pose "
                    f"(channel {channel}, base slot {base_slot})"
                )
            base_bits6 = _POSE_U.unpack(base)
            delta_bits6 = tuple(cursor.varint() for _ in range(6))
            packed = _POSE_U.pack(
                *(b ^ d for b, d in zip(base_bits6, delta_bits6))
            )
            pose = tuple(float(v) for v in _POSE_F.unpack(packed))
        else:
            pose = cursor.pose()
            packed = _POSE_F.pack(*pose)
        delivered_ids = cursor.int_tuple()
        released_ids = cursor.int_tuple()
        indicator = cursor.zigzag()
        delay_slots = cursor.f64()
        viewed_quality = cursor.f64()
        decoded = self._decoded_poses.setdefault(channel, {})
        decoded[slot] = packed
        if len(decoded) > _POSE_MEMORY_SLOTS:
            del decoded[min(decoded)]
        if slot > self._decoded_last.get(channel, -1):
            self._decoded_last[channel] = slot
        return SlotReport(
            slot=slot,
            delivered_ids=delivered_ids,
            released_ids=released_ids,
            indicator=indicator,
            delay_slots=delay_slots,
            viewed_quality=viewed_quality,
            pose=pose,
        )


# ---------------------------------------------------------------------------
# Frame-level reader
# ---------------------------------------------------------------------------


async def read_frame(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[int, int, bytes]]:
    """Read one binary frame; ``None`` on a clean EOF between frames.

    The body-length cap is enforced on the header, *before* any body
    byte is read.  Header damage (bad magic or codec byte) means the
    stream is desynchronized and raises
    :class:`~repro.errors.TransportError`: there is no way to find the
    next frame boundary, so the connection must go down.
    """
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TransportError("connection closed mid-frame") from exc
    magic, codec, frame_type, flags, length = HEADER.unpack(header)
    if magic != HEADER_MAGIC:
        raise TransportError(
            f"bad frame magic 0x{magic:02X} (stream desynchronized)"
        )
    if codec != CODEC_BINARY:
        raise TransportError(f"unsupported codec generation {codec} in header")
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame too large: {length} bytes > {MAX_FRAME_BYTES}"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TransportError("connection closed mid-frame") from exc
    return frame_type, flags, body


# ---------------------------------------------------------------------------
# Connection I/O
# ---------------------------------------------------------------------------


async def read_units(
    reader: asyncio.StreamReader, codec: BinaryChannelCodec
) -> Optional[List[WireFrame]]:
    """Read one frame and decode it with the connection's codec.

    Returns ``None`` on clean EOF, else the decoded wire units.
    Corrupt-but-framed input is *returned* (``message=None`` units),
    never raised; :class:`~repro.errors.TransportError` still raises.
    """
    frame = await read_frame(reader)
    if frame is None:
        return None
    return codec.decode(*frame)


async def send_frame(
    writer: asyncio.StreamWriter,
    codec: BinaryChannelCodec,
    message: ServeMessage,
    channel: int = -1,
) -> None:
    """Write one framed message and drain."""
    writer.write(codec.encode(message, channel=channel))
    await writer.drain()


__all__ = [
    "BATCH_SOFT_BYTES",
    "BinaryChannelCodec",
    "CODEC_BINARY",
    "FLAG_CHANNEL",
    "HEADER",
    "HEADER_MAGIC",
    "TYPE_BYE",
    "TYPE_END",
    "TYPE_JOIN",
    "TYPE_PLAN",
    "TYPE_PLAN_BATCH",
    "TYPE_READY",
    "TYPE_REDIRECT",
    "TYPE_REJECT",
    "TYPE_REPORT",
    "TYPE_REPORT_BATCH",
    "TYPE_WELCOME",
    "WireFrame",
    "bits_pose",
    "pose_bits",
    "read_frame",
    "read_units",
    "send_frame",
]

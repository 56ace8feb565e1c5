"""Seeded fuzz tests for the binary wire codec.

Beyond exact round trips, the codec carries two load-bearing
promises:

* **framing vs body separation** — damage to the 8-byte header is a
  :class:`~repro.errors.TransportError` (the stream is lost), while
  *any* bytes inside an intact frame decode to either a valid message
  or a quarantined ``message=None`` unit.  ``decode`` never raises
  and never hangs, whatever the body holds;
* **entry isolation** — a corrupt entry inside a batch frame costs
  exactly that entry, and a delta report whose base pose the decoder
  does not hold is quarantined without poisoning later frames.

Everything random is drawn from one seeded generator so a failure
prints a round index that replays exactly.
"""

import asyncio
import string
import struct

import numpy as np
import pytest

from repro.errors import TransportError
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    Bye,
    EndOfRun,
    JoinRequest,
    Ready,
    Redirect,
    Reject,
    SlotReport,
    TilePlan,
    Welcome,
)
from repro.serve.protocol2 import (
    CODEC_BINARY,
    HEADER,
    HEADER_MAGIC,
    TYPE_BYE,
    TYPE_PLAN,
    TYPE_REPORT,
    TYPE_REPORT_BATCH,
    BinaryChannelCodec,
    read_frame,
)

_CHARS = string.ascii_letters + string.digits + " -_./:"

#: Every single-message binary frame type (the two batch types are
#: exercised separately).
_ALL_TYPES = tuple(range(1, 12))


def _rand_text(rng, max_len=24):
    length = int(rng.integers(0, max_len))
    return "".join(_CHARS[int(i)] for i in rng.integers(0, len(_CHARS), length))


def _rand_float(rng, low=-1e6, high=1e6):
    return float(rng.uniform(low, high))


def _rand_pose(rng):
    return tuple(_rand_float(rng, -100.0, 100.0) for _ in range(6))


def _rand_ints(rng, max_len=16):
    length = int(rng.integers(0, max_len))
    return tuple(int(v) for v in rng.integers(0, 10_000, length))


def _rand_report(rng, slot=None):
    return SlotReport(
        slot=int(rng.integers(0, 100_000)) if slot is None else slot,
        delivered_ids=_rand_ints(rng),
        released_ids=_rand_ints(rng),
        indicator=int(rng.integers(0, 2)),
        delay_slots=_rand_float(rng, 0.0, 60.0),
        viewed_quality=_rand_float(rng, 0.0, 6.0),
        pose=_rand_pose(rng),
    )


def _rand_plan(rng):
    ids = _rand_ints(rng)
    return TilePlan(
        slot=int(rng.integers(0, 100_000)),
        level=int(rng.integers(0, 16)),
        predicted_pose=_rand_pose(rng) if rng.integers(0, 2) else None,
        video_ids=ids,
        tile_bits=tuple(_rand_float(rng, 0.0, 1e7) for _ in ids),
        lost_positions=tuple(
            int(i) for i in sorted(rng.integers(0, max(len(ids), 1), 2))
        ) if ids else (),
        duration_s=_rand_float(rng, 0.0, 1.0),
        startup_delay_s=_rand_float(rng, 0.0, 1.0),
        demand_mbps=_rand_float(rng, 0.0, 1e3),
        achieved_mbps=_rand_float(rng, 0.0, 1e3),
        degraded=bool(rng.integers(0, 2)),
    )


def _rand_message(rng):
    """One random valid message of a random kind (all nine)."""
    kind = int(rng.integers(0, 9))
    if kind == 0:
        return JoinRequest(
            client=_rand_text(rng), version=int(rng.integers(0, 100)),
            token=_rand_text(rng),
        )
    if kind == 1:
        return Welcome(
            seat=int(rng.integers(0, 64)), version=int(rng.integers(0, 100)),
            slot_s=_rand_float(rng, 1e-4, 1.0),
            num_tx_slots=int(rng.integers(1, 100_000)),
            guideline_mbps=_rand_float(rng, 0.0, 1e3),
            level_count=int(rng.integers(1, 16)),
            world_size_m=_rand_float(rng, 1.0, 100.0),
            world_cell_m=_rand_float(rng, 0.01, 1.0),
            margin_deg=_rand_float(rng, 0.0, 90.0),
            cell_tolerance=int(rng.integers(0, 4)),
            client_cache_tiles=int(rng.integers(0, 10_000)),
            num_decoders=int(rng.integers(1, 16)),
            decode_rate_mbps=_rand_float(rng, 1.0, 1e4),
            lockstep=bool(rng.integers(0, 2)),
            resume_token=_rand_text(rng),
            resumed=bool(rng.integers(0, 2)),
            shard=int(rng.integers(-1, 8)),
        )
    if kind == 2:
        return Reject(
            code=_rand_text(rng, 12), reason=_rand_text(rng),
            capacity=int(rng.integers(0, 64)),
        )
    if kind == 3:
        return Redirect(
            host=_rand_text(rng, 16) or "h", port=int(rng.integers(1, 65536)),
            shard=int(rng.integers(0, 8)), reason=_rand_text(rng, 12),
        )
    if kind == 4:
        return Ready(pose=_rand_pose(rng))
    if kind == 5:
        return _rand_plan(rng)
    if kind == 6:
        return _rand_report(rng)
    if kind == 7:
        return EndOfRun(
            slots=int(rng.integers(0, 100_000)),
            reason=_rand_text(rng, 12),
            summary={
                _rand_text(rng, 8) or "k": _rand_float(rng)
                for _ in range(int(rng.integers(0, 5)))
            },
        )
    return Bye(reason=_rand_text(rng))


def _split(frame):
    """(type, flags, body) of one encoded frame."""
    return frame[2], frame[3], frame[8:]


def _read_one_frame(data, timeout_s=2.0):
    """Feed raw bytes to the binary frame reader; fail on any hang."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await asyncio.wait_for(read_frame(reader), timeout_s)

    return asyncio.run(scenario())


def _varint_at(data, pos):
    """Decode one varint in a test-local parser; (value, next_pos)."""
    result, shift = 0, 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


class TestRoundTripFuzz:
    def test_random_messages_round_trip_exactly(self):
        rng = np.random.default_rng(20260808)
        for round_index in range(300):
            message = _rand_message(rng)
            channel = int(rng.integers(-1, 40))
            encoder = BinaryChannelCodec()
            decoder = BinaryChannelCodec()
            units = decoder.decode(*_split(encoder.encode(message, channel)))
            assert len(units) == 1, f"round {round_index}"
            assert units[0].channel == channel, f"round {round_index}"
            assert units[0].message == message, f"round {round_index}: {message}"

    def test_random_messages_round_trip_through_reader(self):
        rng = np.random.default_rng(101)
        for round_index in range(50):
            message = _rand_message(rng)
            encoder = BinaryChannelCodec()
            decoder = BinaryChannelCodec()
            frame = _read_one_frame(encoder.encode(message))
            assert frame is not None
            units = decoder.decode(*frame)
            assert units[0].message == message, f"round {round_index}"

    def test_delta_reports_round_trip_bit_exactly(self):
        """Acked connected pair: every later report rides an XOR delta."""
        rng = np.random.default_rng(7)
        client = BinaryChannelCodec()
        server = BinaryChannelCodec()
        for slot in range(40):
            report = _rand_report(rng, slot=slot)
            units = server.decode(*_split(client.encode(report)))
            assert units[0].message == report, f"slot {slot}"
            # Plan back to the client carries the codec-level ack.
            plan = _rand_plan(rng)
            units = client.decode(*_split(server.encode(plan)))
            assert units[0].message == plan
            assert client.peer_acked_slot(-1) == slot
        # With an ack in hand the encoder really is producing deltas:
        # re-sending the acked pose XORs to six zero varints, far
        # below the 48-byte absolute form.
        pose = _rand_pose(rng)
        still = SlotReport(slot=100, delivered_ids=(), released_ids=(),
                           indicator=0, delay_slots=0.0, viewed_quality=0.0,
                           pose=pose)
        server.decode(*_split(client.encode(still)))
        client.decode(*_split(server.encode(_rand_plan(rng))))
        assert client.peer_acked_slot(-1) == 100
        repeat = client.encode(
            SlotReport(slot=101, delivered_ids=(), released_ids=(),
                       indicator=0, delay_slots=0.0, viewed_quality=0.0,
                       pose=pose)
        )
        absolute = BinaryChannelCodec().encode(
            SlotReport(slot=101, delivered_ids=(), released_ids=(),
                       indicator=0, delay_slots=0.0, viewed_quality=0.0,
                       pose=pose)
        )
        assert len(repeat) < len(absolute) - 30

    def test_report_batch_round_trips_per_channel(self):
        rng = np.random.default_rng(11)
        client = BinaryChannelCodec()
        server = BinaryChannelCodec()
        entries = [(seat, _rand_report(rng)) for seat in range(12)]
        frames = client.encode_report_batch(entries)
        units = [
            unit for frame in frames
            for unit in server.decode(*_split(frame))
        ]
        assert [(u.channel, u.message) for u in units] == entries

    def test_plan_batch_splits_below_frame_cap(self):
        codec = BinaryChannelCodec()
        plan = TilePlan(
            slot=1, level=1, predicted_pose=None,
            video_ids=tuple(range(4000)),
            tile_bits=tuple(float(i) for i in range(4000)),
            lost_positions=(), duration_s=0.0, startup_delay_s=0.0,
            demand_mbps=0.0, achieved_mbps=0.0, degraded=False,
        )
        frames = codec.encode_plan_batch([(seat, plan) for seat in range(40)])
        assert len(frames) > 1
        assert all(len(f) <= MAX_FRAME_BYTES for f in frames)
        decoder = BinaryChannelCodec()
        units = [u for f in frames for u in decoder.decode(*_split(f))]
        assert [u.channel for u in units] == list(range(40))
        assert all(u.message == plan for u in units)


class TestDamageFuzz:
    def test_truncation_at_every_cut_is_clean(self):
        rng = np.random.default_rng(13)
        frame = BinaryChannelCodec().encode(_rand_message(rng), channel=3)
        for cut in range(len(frame)):
            if cut == 0:
                assert _read_one_frame(b"") is None
                continue
            with pytest.raises(TransportError):
                _read_one_frame(frame[:cut])

    def test_decode_never_raises_on_any_body(self):
        """The quarantine contract: garbage bodies yield units, not
        exceptions — for every frame type including unknown ones."""
        rng = np.random.default_rng(17)
        for round_index in range(300):
            frame_type = int(rng.integers(0, 16))
            flags = int(rng.integers(0, 2))
            body = bytes(
                rng.integers(0, 256, int(rng.integers(0, 96)), dtype=np.uint8)
            )
            units = BinaryChannelCodec().decode(frame_type, flags, body)
            assert units, f"round {round_index}"

    def test_bit_flips_never_hang_or_leak_odd_errors(self):
        """Flips end in TransportError, quarantine, or a message."""
        rng = np.random.default_rng(19)
        quarantined = 0
        for round_index in range(300):
            frame = bytearray(
                BinaryChannelCodec().encode(_rand_message(rng), channel=2)
            )
            position = int(rng.integers(0, len(frame)))
            frame[position] ^= 1 << int(rng.integers(0, 8))
            try:
                read = _read_one_frame(bytes(frame))
            except TransportError:
                # Header or length damage: the stream is lost.
                continue
            if read is None:
                continue
            units = BinaryChannelCodec().decode(*read)
            quarantined += sum(1 for u in units if u.message is None)
        assert quarantined > 0

    def test_oversized_length_rejected_before_body(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            declared = int(rng.integers(MAX_FRAME_BYTES + 1, 2**32))
            header = HEADER.pack(
                HEADER_MAGIC, CODEC_BINARY, TYPE_BYE, 0, declared
            )
            # No body bytes follow: the cap must trip on the header
            # alone, or this read would hang waiting for a megabyte.
            with pytest.raises(TransportError):
                _read_one_frame(header)

    def test_bad_magic_and_codec_bytes_kill_the_stream(self):
        frame = bytearray(BinaryChannelCodec().encode(Bye(reason="x")))
        for byte_index, value in ((0, 0x00), (0, 0xB3), (1, 1), (1, 3)):
            damaged = bytearray(frame)
            damaged[byte_index] = value
            with pytest.raises(TransportError):
                _read_one_frame(bytes(damaged))

    def test_varint_overflow_is_quarantined(self):
        # 11 continuation bytes: overlong.  10 bytes encoding >= 2^64:
        # out of range.  Both are body damage, not framing damage.
        for evil in (b"\xff" * 10 + b"\x01", b"\xff" * 9 + b"\x7f"):
            units = BinaryChannelCodec().decode(TYPE_REPORT, 0, evil)
            assert units == [type(units[0])(channel=-1, message=None)]

    def test_encode_rejects_over_64_bit_ids(self):
        report = SlotReport(
            slot=1, delivered_ids=(1 << 64,), released_ids=(),
            indicator=0, delay_slots=0.0, viewed_quality=0.0,
            pose=(0.0,) * 6,
        )
        with pytest.raises(TransportError):
            BinaryChannelCodec().encode(report)

    def test_encode_rejects_non_finite_poses(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            report = SlotReport(
                slot=1, delivered_ids=(), released_ids=(),
                indicator=0, delay_slots=0.0, viewed_quality=0.0,
                pose=(bad,) + (0.0,) * 5,
            )
            with pytest.raises(TransportError):
                BinaryChannelCodec().encode(report)
            plan = TilePlan(
                slot=1, level=1, predicted_pose=(bad,) + (0.0,) * 5,
                video_ids=(), tile_bits=(), lost_positions=(),
                duration_s=0.0, startup_delay_s=0.0, demand_mbps=0.0,
                achieved_mbps=0.0, degraded=False,
            )
            with pytest.raises(TransportError):
                BinaryChannelCodec().encode(plan)

    def test_encode_rejects_oversized_frames(self):
        with pytest.raises(TransportError):
            BinaryChannelCodec().encode(Bye(reason="x" * (MAX_FRAME_BYTES + 1)))


class TestDeltaBaseDamage:
    def _acked_pair(self, rng):
        """A (client, server) pair whose next report is delta-coded."""
        client = BinaryChannelCodec()
        server = BinaryChannelCodec()
        server.decode(*_split(client.encode(_rand_report(rng, slot=0))))
        client.decode(*_split(server.encode(_rand_plan(rng))))
        assert client.peer_acked_slot(-1) == 0
        return client, server

    def test_delta_against_absent_base_is_quarantined(self):
        rng = np.random.default_rng(29)
        client, _ = self._acked_pair(rng)
        delta_frame = client.encode(_rand_report(rng, slot=1))
        fresh = BinaryChannelCodec()
        units = fresh.decode(*_split(delta_frame))
        assert units[0].message is None

    def test_delta_against_stale_base_is_quarantined(self):
        rng = np.random.default_rng(31)
        client, _ = self._acked_pair(rng)
        delta_frame = client.encode(_rand_report(rng, slot=1))
        stale = BinaryChannelCodec()
        # This decoder has pose memory, just not for base slot 0.
        stale.decode(*_split(BinaryChannelCodec().encode(
            _rand_report(rng, slot=99)
        )))
        units = stale.decode(*_split(delta_frame))
        assert units[0].message is None

    def test_quarantined_delta_does_not_poison_the_stream(self):
        """One lost report costs one report: the next absolute frame
        decodes, and the delta loop re-establishes itself."""
        rng = np.random.default_rng(37)
        client, server = self._acked_pair(rng)
        # Server loses its pose memory (models a resume on its side).
        replacement = BinaryChannelCodec()
        lost = replacement.decode(*_split(client.encode(_rand_report(rng, slot=1))))
        assert lost[0].message is None
        # The replacement acks nothing, so the client's next encode
        # against a *fresh* codec state is absolute and decodes.
        fresh_client = BinaryChannelCodec()
        report = _rand_report(rng, slot=2)
        units = replacement.decode(*_split(fresh_client.encode(report)))
        assert units[0].message == report

    def test_resume_reset_state_sends_absolute_first_report(self):
        rng = np.random.default_rng(41)
        client, _ = self._acked_pair(rng)
        assert client.peer_acked_slot(-1) == 0
        # A resume binds a fresh codec: its first report must carry
        # the full 48-byte pose, decodable with zero shared state.
        resumed = BinaryChannelCodec()
        report = _rand_report(rng, slot=50)
        units = BinaryChannelCodec().decode(*_split(resumed.encode(report)))
        assert units[0].message == report


class TestBatchIsolation:
    def _entry_spans(self, body):
        """[(start, end)] byte spans of each batch entry body."""
        count, pos = _varint_at(body, 0)
        spans = []
        for _ in range(count):
            length, pos = _varint_at(body, pos)
            spans.append((pos, pos + length))
            pos += length
        return spans

    def test_corrupt_entry_costs_exactly_that_entry(self):
        rng = np.random.default_rng(43)
        client = BinaryChannelCodec()
        entries = [(seat, _rand_report(rng)) for seat in range(5)]
        (frame,) = client.encode_report_batch(entries)
        frame_type, flags, body = _split(frame)
        spans = self._entry_spans(body)
        start, end = spans[2]
        damaged = body[:start] + b"\xff" * (end - start) + body[end:]
        units = BinaryChannelCodec().decode(frame_type, flags, damaged)
        assert len(units) == 5
        for index, unit in enumerate(units):
            if index == 2:
                assert unit.message is None
            else:
                assert unit.message == entries[index][1]
                assert unit.channel == entries[index][0]

    def test_broken_batch_framing_keeps_decoded_prefix(self):
        rng = np.random.default_rng(47)
        client = BinaryChannelCodec()
        entries = [(seat, _rand_report(rng)) for seat in range(4)]
        (frame,) = client.encode_report_batch(entries)
        frame_type, flags, body = _split(frame)
        # Truncate inside entry 3's length prefix region: entries 0-2
        # stand, the broken tail is one quarantined unit.
        start, _ = self._entry_spans(body)[3]
        truncated = body[:start - 1]
        units = BinaryChannelCodec().decode(frame_type, flags, truncated)
        assert [u.message for u in units[:3]] == [e[1] for e in entries[:3]]
        assert units[-1].message is None

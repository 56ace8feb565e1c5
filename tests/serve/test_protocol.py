"""Tests for the serving message schema carried over the binary wire."""

import asyncio
import struct

import pytest

from repro.errors import TransportError
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    Bye,
    EndOfRun,
    JoinRequest,
    Ready,
    Reject,
    SlotReport,
    TilePlan,
    Welcome,
    pose_to_wire,
)
from repro.serve.protocol2 import (
    CODEC_BINARY,
    HEADER,
    HEADER_MAGIC,
    TYPE_BYE,
    TYPE_READY,
    BinaryChannelCodec,
    WireFrame,
    read_units,
    send_frame,
)

POSE = (1.0, 2.0, 0.5, 30.0, -10.0, 0.0)

MESSAGES = [
    JoinRequest(client="phone-1", version=1),
    Welcome(
        seat=3, version=1, slot_s=1.0 / 60.0, num_tx_slots=299,
        guideline_mbps=45.0, level_count=6, world_size_m=8.0,
        world_cell_m=0.05, margin_deg=15.0, cell_tolerance=1,
        client_cache_tiles=600, num_decoders=5, decode_rate_mbps=400.0,
        lockstep=True,
    ),
    Reject(code="capacity", reason="at capacity: 8/8", capacity=8),
    Ready(pose=POSE),
    TilePlan(
        slot=7, level=4, predicted_pose=POSE, video_ids=(11, 12, 13),
        tile_bits=(1e5, 2e5, 5e4), lost_positions=(1,), duration_s=0.004,
        startup_delay_s=0.0, demand_mbps=21.0, achieved_mbps=48.0,
        degraded=False,
    ),
    TilePlan(
        slot=0, level=0, predicted_pose=None, video_ids=(), tile_bits=(),
        lost_positions=(), duration_s=0.0, startup_delay_s=0.0,
        demand_mbps=0.0, achieved_mbps=0.0, degraded=True,
    ),
    SlotReport(
        slot=7, delivered_ids=(11, 13), released_ids=(4,), indicator=1,
        delay_slots=0.31, viewed_quality=4.0, pose=POSE,
    ),
    EndOfRun(slots=299, reason="complete", summary={"qoe": 3.4, "quality": 4.1}),
    Bye(reason="done"),
]

_KINDS = {
    JoinRequest: "join", Welcome: "welcome", Reject: "reject",
    Ready: "ready", TilePlan: "plan", SlotReport: "report",
    EndOfRun: "end", Bye: "bye",
}

#: A quarantined single frame: framing intact, body undecodable.
QUARANTINED = [WireFrame(channel=-1, message=None)]


def _split(frame):
    """(type, flags, body) of one encoded frame."""
    return frame[2], frame[3], frame[8:]


def _read_all(data):
    """Every message a reader yields from ``data``, up to EOF."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        codec = BinaryChannelCodec()
        received = []
        while True:
            units = await read_units(reader, codec)
            if units is None:
                return received
            received.extend(unit.message for unit in units)

    return asyncio.run(scenario())


class TestRoundTrip:
    @pytest.mark.parametrize(
        "message", MESSAGES, ids=lambda m: _KINDS[type(m)]
    )
    def test_encode_decode_identity(self, message):
        frame = BinaryChannelCodec().encode(message)
        magic, codec, _, _, length = HEADER.unpack(frame[:HEADER.size])
        assert (magic, codec) == (HEADER_MAGIC, CODEC_BINARY)
        assert length == len(frame) - HEADER.size
        (unit,) = BinaryChannelCodec().decode(*_split(frame))
        assert unit.message == message

    def test_non_finite_floats_rejected(self):
        message = SlotReport(
            slot=0, delivered_ids=(), released_ids=(), indicator=0,
            delay_slots=float("inf"), viewed_quality=0.0, pose=POSE,
        )
        with pytest.raises(TransportError):
            BinaryChannelCodec().encode(message)


class TestValidation:
    def test_unknown_kind(self):
        assert BinaryChannelCodec().decode(99, 0, b"") == QUARANTINED

    def test_bool_is_not_an_int(self):
        plan = MESSAGES[5]
        frame_type, flags, body = _split(BinaryChannelCodec().encode(plan))
        # slot 0 and level 0 are one byte each; the third byte is the
        # has-predicted-pose boolean, which may only be 0 or 1.
        assert body[2] == 0
        damaged = body[:2] + b"\x02" + body[3:]
        assert BinaryChannelCodec().decode(frame_type, flags, damaged) == (
            QUARANTINED
        )

    def test_pose_must_have_six_floats(self):
        with pytest.raises(TransportError):
            BinaryChannelCodec().encode(Ready(pose=(1.0, 2.0)))
        short = struct.pack("!2d", 1.0, 2.0)
        assert BinaryChannelCodec().decode(TYPE_READY, 0, short) == QUARANTINED

    def test_pose_to_wire_validates_length(self):
        with pytest.raises(TransportError):
            pose_to_wire((1.0, 2.0, 3.0))


class TestFraming:
    def test_read_message_round_trip(self):
        assert _read_all(BinaryChannelCodec().encode(Bye(reason="ok"))) == [
            Bye(reason="ok")
        ]

    def test_read_message_mid_frame_eof(self):
        frame = BinaryChannelCodec().encode(Bye(reason="ok"))
        with pytest.raises(TransportError):
            _read_all(frame[:-2])

    def test_read_message_oversized_frame(self):
        header = HEADER.pack(
            HEADER_MAGIC, CODEC_BINARY, TYPE_BYE, 0, MAX_FRAME_BYTES + 1
        )
        with pytest.raises(TransportError):
            _read_all(header)

    def test_multiple_frames_in_sequence(self):
        codec = BinaryChannelCodec()
        stream = b"".join(codec.encode(message) for message in MESSAGES)
        assert _read_all(stream) == MESSAGES

    def test_send_and_write_over_loopback(self):
        async def scenario():
            received = []

            async def handler(reader, writer):
                codec = BinaryChannelCodec()
                for _ in range(2):
                    (unit,) = await read_units(reader, codec)
                    received.append(unit)
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            codec = BinaryChannelCodec()
            await send_frame(writer, codec, JoinRequest(client="a", version=1))
            writer.write(codec.encode(Bye(reason="done"), channel=4))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            return received

        assert asyncio.run(scenario()) == [
            WireFrame(channel=-1, message=JoinRequest(client="a", version=1)),
            WireFrame(channel=4, message=Bye(reason="done")),
        ]

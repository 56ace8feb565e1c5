"""The codec's pose memory: packed poses, bounded by the working set.

Each channel remembers the poses it sent and decoded as the 48
``!6d`` bytes the XOR delta works on.  A delta decoded against such a
packed base must give exactly what the per-component float path gives
(``pose_bits``/``bits_pose`` on each coordinate), including for signed
zeros, subnormals and the largest doubles, whose bit patterns a float
round trip could lose if it were not exact.

Both rings hold only the poses still usable as a base: the sender
drops those older than its peer's newest ack, the decoder those older
than each delta report's base.  A report the decoder quarantines
changes no state, so it is never acked and never becomes a base.
"""

import asyncio
import struct
import sys
import tracemalloc

import numpy as np

from repro.serve import server as server_module
from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig
from repro.serve.mux import run_serve_and_mux_fleet
from repro.serve.protocol import SlotReport, TilePlan
from repro.serve.protocol2 import (
    _POSE_MEMORY_SLOTS,
    BinaryChannelCodec,
    bits_pose,
    pose_bits,
)
from tests.serve.test_protocol2_fuzz import _split, _varint_at

_SPECIAL = (
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    sys.float_info.min / 2,
    sys.float_info.min,
    1.0,
    -1.5,
    1e300,
    -sys.float_info.max,
    sys.float_info.max,
)


def _report(slot, pose):
    return SlotReport(slot=slot, delivered_ids=(), released_ids=(),
                      indicator=1, delay_slots=0.5, viewed_quality=2.0,
                      pose=tuple(pose))


def _plan(slot):
    return TilePlan(slot=slot, level=1, predicted_pose=None, video_ids=(),
                    tile_bits=(), lost_positions=(), duration_s=0.0,
                    startup_delay_s=0.0, demand_mbps=0.0,
                    achieved_mbps=0.0, degraded=False)


def _plan_ack(server, client, slot):
    """Send the client a plan so it learns the server decoded ``slot``."""
    client.decode(*_split(server.encode(_plan(slot))))
    assert client.peer_acked_slot(-1) == slot


def _tuple_path(base, delta_bits):
    """The decode as done on float tuples: one component at a time."""
    return tuple(bits_pose(pose_bits(b) ^ d) for b, d in zip(base, delta_bits))


class TestPackedPoseMemory:
    def test_special_values_delta_like_the_tuple_path(self):
        rng = np.random.default_rng(18)
        for round_index in range(200):
            base = tuple(float(v) for v in rng.choice(_SPECIAL, 6))
            pose = tuple(float(v) for v in rng.choice(_SPECIAL, 6))
            client = BinaryChannelCodec()
            server = BinaryChannelCodec()
            server.decode(*_split(client.encode(_report(0, base))))
            _plan_ack(server, client, 0)
            frame = client.encode(_report(1, pose))
            body = _split(frame)[2]
            # zigzag(slot 1), delta flag, base slot + 1, then 6 varints.
            assert body[1] == 1 and body[2] == 1, f"round {round_index}"
            pos, delta_bits = 3, []
            for _ in range(6):
                bits, pos = _varint_at(body, pos)
                delta_bits.append(bits)
            assert delta_bits == [
                pose_bits(p) ^ pose_bits(b) for p, b in zip(pose, base)
            ], f"round {round_index}"
            decoded = server.decode(*_split(frame))[0].message.pose
            expected = _tuple_path(base, delta_bits)
            assert [pose_bits(v) for v in decoded] == [
                pose_bits(v) for v in expected
            ] == [pose_bits(v) for v in pose], f"round {round_index}"

    def test_delta_chain_stays_bit_exact(self):
        """Each decoded pose becomes the next base, for many slots."""
        rng = np.random.default_rng(19)
        client = BinaryChannelCodec()
        server = BinaryChannelCodec()
        for slot in range(60):
            pose = tuple(
                float(v) if rng.random() < 0.5 else float(rng.normal(0, 1e6))
                for v in rng.choice(_SPECIAL, 6)
            )
            decoded = server.decode(*_split(client.encode(_report(slot, pose))))
            got = decoded[0].message.pose
            assert [pose_bits(v) for v in got] == [pose_bits(v) for v in pose]
            _plan_ack(server, client, slot)

    def test_rings_hold_packed_poses_and_evict_oldest(self):
        client = BinaryChannelCodec()
        server = BinaryChannelCodec()
        slots = _POSE_MEMORY_SLOTS + 10
        for slot in range(slots):
            report = _report(slot, (float(slot), -0.0, 5e-324, 1.0, 2.0, 3.0))
            server.decode(*_split(client.encode(report)))
        decoded = server._decoded_poses[-1]
        sent = client._sent_poses[-1]
        assert sorted(decoded) == sorted(sent) == list(
            range(slots - _POSE_MEMORY_SLOTS, slots)
        )
        assert all(
            isinstance(v, bytes) and len(v) == 48
            for v in (*decoded.values(), *sent.values())
        )
        assert decoded == sent


_CHANNELS = 16


def _chain_pose(rng):
    """A pose mixing signed zeros and subnormals with ordinary values."""
    return tuple(
        float(v) if rng.random() < 0.5 else float(rng.normal(0, 10.0))
        for v in rng.choice(_SPECIAL, 6)
    )


def _poses_bits(pose):
    return [pose_bits(v) for v in pose]


def _step(client, server, slot, rng):
    """One slot on a multiplexed connection: a report batch up, the
    plan batch (carrying the acks) down."""
    poses = {ch: _chain_pose(rng) for ch in range(_CHANNELS)}
    decoded = {}
    for frame in client.encode_report_batch(
        [(ch, _report(slot, poses[ch])) for ch in range(_CHANNELS)]
    ):
        for unit in server.decode(*_split(frame)):
            decoded[unit.channel] = unit.message.pose
    for ch in range(_CHANNELS):
        assert _poses_bits(decoded[ch]) == _poses_bits(poses[ch]), (slot, ch)
    for frame in server.encode_plan_batch(
        [(ch, _plan(slot)) for ch in range(_CHANNELS)]
    ):
        client.decode(*_split(frame))


def _with_trailing_byte(frame):
    """(type, flags, body) of ``frame`` with one extra body byte."""
    frame_type, flags, body = _split(frame)
    return frame_type, flags, body + b"\x00"


def _batch_with_trailing_byte(frame, index):
    """A batch frame whose entry ``index`` carries one extra byte."""
    frame_type, flags, body = _split(frame)
    count, pos = _varint_at(body, 0)
    out = bytearray(body[:pos])
    for i in range(count):
        length, pos = _varint_at(body, pos)
        entry = body[pos:pos + length] + (b"\x00" if i == index else b"")
        pos += length
        assert len(entry) < 0x80  # a one-byte length varint
        out += bytes([len(entry)]) + entry
    return frame_type, flags, bytes(out)


class TestRingsHoldTheWorkingSet:
    def test_acked_delta_chain_keeps_both_rings_equal_and_tiny(self):
        rng = np.random.default_rng(24)
        client = BinaryChannelCodec()
        server = BinaryChannelCodec()
        for slot in range(600):
            poses = {ch: _chain_pose(rng) for ch in range(_CHANNELS)}
            for frame in client.encode_report_batch(
                [(ch, _report(slot, poses[ch])) for ch in range(_CHANNELS)]
            ):
                units = server.decode(*_split(frame))
                assert all(unit.message is not None for unit in units)
                for unit in units:
                    assert _poses_bits(unit.message.pose) == _poses_bits(
                        poses[unit.channel]
                    ), (slot, unit.channel)
            for ch in range(_CHANNELS):
                decoded = server._decoded_poses[ch]
                assert decoded == client._sent_poses[ch], (slot, ch)
                assert len(decoded) <= 2, (slot, ch)
                assert sorted(decoded) == list(range(max(0, slot - 1), slot + 1))
                assert decoded[slot] == struct.pack("!6d", *poses[ch])
            for frame in server.encode_plan_batch(
                [(ch, _plan(slot)) for ch in range(_CHANNELS)]
            ):
                client.decode(*_split(frame))

    def test_delta_against_a_pruned_base_is_quarantined(self):
        rng = np.random.default_rng(25)
        client = BinaryChannelCodec()
        server = BinaryChannelCodec()
        stale = None
        for slot in range(12):
            pose = _chain_pose(rng)
            frame = client.encode(_report(slot, pose), channel=3)
            if slot == 5:
                stale = frame  # a delta against base slot 4
            assert server.decode(*_split(frame))[0].message is not None
            client.decode(*_split(server.encode(_plan(slot), channel=3)))
        assert sorted(server._decoded_poses[3]) == [10, 11]
        before = dict(server._decoded_poses[3])
        units = server.decode(*_split(stale))
        assert [(u.channel, u.message) for u in units] == [(3, None)]
        assert server._decoded_poses[3] == before
        assert server.acked_slot(3) == 11

    def test_decoder_memory_stays_flat(self):
        rng = np.random.default_rng(26)
        client = BinaryChannelCodec()
        server = BinaryChannelCodec()
        tracemalloc.start()
        try:
            for slot in range(600):
                _step(client, server, slot, rng)
                if slot == 100:
                    start, _ = tracemalloc.get_traced_memory()
            end, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A decoder that kept every pose up to the 256-slot cap would
        # grow by over 500 KB here; the pruned one grows by ~2 KB.
        assert end - start < 16 * 1024, end - start

    def test_lockstep_serve_keeps_two_poses_per_seat(self, monkeypatch):
        codecs = []

        class RecordingCodec(BinaryChannelCodec):
            def __init__(self):
                super().__init__()
                codecs.append(self)

        monkeypatch.setattr(server_module, "BinaryChannelCodec", RecordingCodec)
        serve_config = serve_setup1(
            max_users=8, duration_slots=61, seed=0, expect_clients=8,
            lockstep=True,
        )
        result, fleet = asyncio.run(run_serve_and_mux_fleet(
            serve_config, LoadGenConfig(num_clients=8, seed=0)
        ))
        assert result.slots == 60 and len(fleet.admitted) == 8
        rings = {
            channel: ring
            for codec in codecs
            for channel, ring in codec._decoded_poses.items()
        }
        assert sorted(rings) == list(range(8))
        assert max(len(ring) for ring in rings.values()) <= 2


class TestQuarantinedReportChangesNoState:
    def _acked_chain(self, channel, slots):
        rng = np.random.default_rng(27)
        client = BinaryChannelCodec()
        server = BinaryChannelCodec()
        for slot in range(slots):
            frame = client.encode(_report(slot, _chain_pose(rng)), channel)
            assert server.decode(*_split(frame))[0].message is not None
            client.decode(*_split(server.encode(_plan(slot), channel)))
        return client, server

    def test_single_frame_with_trailing_bytes_is_not_acked(self):
        client, server = self._acked_chain(3, 5)
        ring = dict(server._decoded_poses[3])
        frame = client.encode(_report(5, (1.0, 2.0, 0.0, 0.0, 0.5, 0.0)), 3)
        units = server.decode(*_with_trailing_byte(frame))
        assert [(u.channel, u.message) for u in units] == [(3, None)]
        assert server.acked_slot(3) == 4
        assert server._decoded_poses[3] == ring
        # The server acks slot 4, so the next delta uses a base it holds.
        client.decode(*_split(server.encode(_plan(5), 3)))
        assert client.peer_acked_slot(3) == 4
        pose = (1.5, -0.0, 5e-324, 0.0, 0.25, 3.0)
        unit = server.decode(*_split(client.encode(_report(6, pose), 3)))[0]
        assert _poses_bits(unit.message.pose) == _poses_bits(pose)
        assert server.acked_slot(3) == 6

    def test_first_absolute_report_with_trailing_bytes_is_not_recorded(self):
        client = BinaryChannelCodec()
        server = BinaryChannelCodec()
        frame = client.encode(_report(5, (1.0, 2.0, 0.0, 0.0, 0.5, 0.0)), 3)
        units = server.decode(*_with_trailing_byte(frame))
        assert [(u.channel, u.message) for u in units] == [(3, None)]
        assert server.acked_slot(3) == -1
        assert server._decoded_poses.get(3, {}) == {}

    def test_batch_entry_with_trailing_bytes_is_not_acked(self):
        rng = np.random.default_rng(28)
        client = BinaryChannelCodec()
        server = BinaryChannelCodec()
        for slot in range(4):
            _step(client, server, slot, rng)
        rings = {ch: dict(server._decoded_poses[ch]) for ch in range(_CHANNELS)}
        poses = {ch: _chain_pose(rng) for ch in range(_CHANNELS)}
        (frame,) = client.encode_report_batch(
            [(ch, _report(4, poses[ch])) for ch in range(_CHANNELS)]
        )
        units = server.decode(*_batch_with_trailing_byte(frame, 7))
        assert [u.channel for u in units] == list(range(_CHANNELS))
        assert [u.message is None for u in units] == [
            ch == 7 for ch in range(_CHANNELS)
        ]
        assert server.acked_slot(7) == 3
        assert server._decoded_poses[7] == rings[7]
        for ch in range(_CHANNELS):
            if ch != 7:
                assert server.acked_slot(ch) == 4
        # The chain goes on: seat 7's next delta is against slot 3.
        for frame in server.encode_plan_batch(
            [(ch, _plan(4)) for ch in range(_CHANNELS)]
        ):
            client.decode(*_split(frame))
        assert client.peer_acked_slot(7) == 3
        for slot in range(5, 8):
            _step(client, server, slot, rng)
        assert server.acked_slot(7) == 7

    def test_plan_with_trailing_bytes_moves_no_ack(self):
        client, server = self._acked_chain(3, 5)
        server.decode(*_split(client.encode(_report(5, (1.0,) * 6), 3)))
        assert sorted(client._sent_poses[3]) == [4, 5]
        frame = server.encode(_plan(5), 3)
        units = client.decode(*_with_trailing_byte(frame))
        assert [(u.channel, u.message) for u in units] == [(3, None)]
        assert client.peer_acked_slot(3) == 4
        assert sorted(client._sent_poses[3]) == [4, 5]
        client.decode(*_split(frame))
        assert client.peer_acked_slot(3) == 5
        assert sorted(client._sent_poses[3]) == [5]

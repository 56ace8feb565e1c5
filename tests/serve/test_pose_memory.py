"""The codec's pose memory holds packed poses, not float tuples.

Each channel remembers the poses it sent and decoded as the 48
``!6d`` bytes the XOR delta works on.  A delta decoded against such a
packed base must give exactly what the per-component float path gives
(``pose_bits``/``bits_pose`` on each coordinate), including for signed
zeros, subnormals and the largest doubles, whose bit patterns a float
round trip could lose if it were not exact.
"""

import sys

import numpy as np

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


def _plan_ack(server, client, slot):
    """Send the client a plan so it learns the server decoded ``slot``."""
    plan = TilePlan(slot=slot, level=1, predicted_pose=None, video_ids=(),
                    tile_bits=(), lost_positions=(), duration_s=0.0,
                    startup_delay_s=0.0, demand_mbps=0.0,
                    achieved_mbps=0.0, degraded=False)
    client.decode(*_split(server.encode(plan)))
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

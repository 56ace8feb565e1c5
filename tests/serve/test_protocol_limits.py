"""Wire limits: the lines the binary codec holds.

Non-finite floats are refused on encode (and a non-finite pose on
decode, should a peer skip that check), the 1 MiB frame cap chokes
the encoder (the reader's header-time check is pinned by
``test_protocol2_fuzz.py``) while a frame just under it survives, and
a resumed session's fresh codec state starts with an absolute pose so
no delta can reference state the peer lost.
"""

import asyncio
import math
from dataclasses import replace

import pytest

from repro.errors import TransportError
from repro.faults import FAULT_DISCONNECT, FaultEvent, FaultSchedule
from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig, ReconnectPolicy
from repro.serve.mux import run_serve_and_mux_fleet
from repro.serve.protocol import MAX_FRAME_BYTES, Bye, Ready, SlotReport
from repro.serve import protocol2
from repro.serve.protocol2 import BinaryChannelCodec
from tests.serve.test_pose_memory import _plan_ack
from tests.serve.test_protocol2_fuzz import _split


def _report(**overrides):
    fields = dict(
        slot=3, delivered_ids=(1, 2), released_ids=(), indicator=1,
        delay_slots=7.25, viewed_quality=4.0, pose=(0.5,) * 6,
    )
    fields.update(overrides)
    return SlotReport(**fields)


class TestNonFiniteSymmetry:
    def test_binary_encoder_refuses_the_same_values(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(TransportError):
                BinaryChannelCodec().encode(Ready(pose=(bad,) + (0.0,) * 5))
            with pytest.raises(TransportError):
                BinaryChannelCodec().encode(_report(delay_slots=bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_binary_decoder_quarantines_non_finite_poses(self, monkeypatch, bad):
        """A peer that skips the encoder's check gets its frame dropped,
        whether the pose is sent whole or XOR-delta-coded, instead of
        handing the planner a non-finite position or view direction."""
        monkeypatch.setattr(
            protocol2, "_check_finite", lambda value, what: float(value)
        )
        poison = (0.5, bad, 0.5, 0.5, 0.5, 0.5)
        client, server = BinaryChannelCodec(), BinaryChannelCodec()

        def receive(message):
            (unit,) = server.decode(*_split(client.encode(message)))
            return unit.message

        assert receive(Ready(pose=poison)) is None
        assert receive(_report(slot=0, pose=poison)) is None
        assert receive(_report(slot=1)) == _report(slot=1)
        _plan_ack(server, client, 1)
        assert receive(_report(slot=2, pose=poison)) is None
        assert receive(_report(slot=3)) == _report(slot=3)


class TestMaxFrameSymmetry:
    def test_both_encoders_choke_at_the_shared_cap(self):
        oversized = Bye(reason="x" * (MAX_FRAME_BYTES + 1))
        with pytest.raises(TransportError):
            BinaryChannelCodec().encode(oversized)

    def test_frame_at_exactly_the_cap_survives_both_codecs(self):
        message = Bye(reason="x" * (MAX_FRAME_BYTES - 64))
        codec = BinaryChannelCodec()
        frame = codec.encode(message)
        (unit,) = BinaryChannelCodec().decode(frame[2], frame[3], frame[8:])
        assert unit.message == message


class TestResumeWireReset:
    def test_resumed_binary_session_loses_no_reports(self):
        """A mid-run disconnect rebinds a fresh codec: if the client's
        first post-resume report were still delta-coded against the
        dead connection's state, the server would quarantine it and
        the corrupt-frame counter would show it."""
        schedule = FaultSchedule(events=(
            FaultEvent(slot=5, seat=1, kind=FAULT_DISCONNECT),
        ))
        serve_config = replace(
            serve_setup1(
                max_users=3, duration_slots=21, seed=2, expect_clients=3,
                lockstep=True,
            ),
            faults=schedule,
            resume_grace_s=5.0,
            report_timeout_s=1.0,
        )
        fleet_config = LoadGenConfig(
            num_clients=3, seed=2, faults=schedule,
            reconnect=ReconnectPolicy(max_attempts=4),
        )
        result, fleet = asyncio.run(
            run_serve_and_mux_fleet(serve_config, fleet_config)
        )
        metrics = result.metrics
        assert metrics.session_resumes == 1
        assert metrics.corrupt_frames == 0
        assert {c.end_reason for c in fleet.clients} == {"complete"}
        by_seat = {c.seat: c for c in fleet.clients}
        assert by_seat[1].resumes == 1

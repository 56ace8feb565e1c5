"""Corrupt-frame quarantine: bad bytes are counted, never fatal.

A corrupted report must cost at most that one report — the server
quarantines the frame (drop + count) and the session, the slot loop,
and every other seat keep going.  The byte-level helpers are pinned
down here too, since the whole tier depends on corruption preserving
framing and truncation breaking it.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError, TransportError
from repro.faults import (
    FAULT_CORRUPT_REPORT,
    FaultEvent,
    FaultSchedule,
    corrupt_frame_bytes,
    truncate_frame_bytes,
)
from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig
from repro.serve.mux import run_serve_and_mux_fleet
from repro.serve.protocol import Bye, SlotReport
from repro.serve.protocol2 import (
    HEADER,
    BinaryChannelCodec,
    read_frame,
    read_units,
)


def _read_frame_of(data):
    """Run the frame reader over ``data`` followed by EOF."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(scenario())


class TestFrameHelpers:
    def test_corruption_preserves_framing(self):
        frame = BinaryChannelCodec().encode(Bye(reason="fine"))
        bad = corrupt_frame_bytes(frame)
        assert len(bad) == len(frame)
        assert bad[:HEADER.size] == frame[:HEADER.size]
        assert bad != frame

    def test_corrupt_frame_is_recoverable_on_stream(self):
        """Framing survives corruption: the next frame still parses."""

        async def scenario():
            codec = BinaryChannelCodec()
            reader = asyncio.StreamReader()
            reader.feed_data(corrupt_frame_bytes(codec.encode(Bye(reason="a"))))
            reader.feed_data(codec.encode(Bye(reason="b")))
            reader.feed_eof()
            (lost,) = await read_units(reader, codec)
            (kept,) = await read_units(reader, codec)
            return lost.message, kept.message

        assert asyncio.run(scenario()) == (None, Bye(reason="b"))

    def test_binary_corruption_is_quarantined_not_misread(self):
        """Codec-2 frames carry no checksum, so the injector must
        produce damage the decoder detects by construction — a single
        flipped bit could decode as a valid, merely wrong, value."""
        sender = BinaryChannelCodec()
        receiver = BinaryChannelCodec()
        report = SlotReport(
            slot=3,
            delivered_ids=(101, 102),
            released_ids=(90,),
            indicator=1,
            delay_slots=0.5,
            viewed_quality=4.0,
            pose=(1.0, 2.0, 3.0, 0.1, 0.2, 0.3),
        )
        frame = sender.encode(report)
        bad = corrupt_frame_bytes(frame)
        assert len(bad) == len(frame)
        assert bad[:8] == frame[:8]
        units = receiver.decode(bad[2], bad[3], bad[8:])
        assert [unit.message for unit in units] == [None]

    def test_truncation_breaks_framing(self):
        frame = BinaryChannelCodec().encode(Bye(reason="fine"))
        short = truncate_frame_bytes(frame)
        assert len(short) < len(frame)
        declared = HEADER.unpack(short[:HEADER.size])[-1]
        assert declared > len(short) - HEADER.size
        with pytest.raises(TransportError):
            _read_frame_of(short)

    @pytest.mark.parametrize("reason", ["a", "abcd", "fine", "x" * 40])
    def test_truncation_cuts_strictly_inside_the_body(self, reason):
        # "a" is the 10-byte frame (2-byte body) and "abcd" the
        # 13-byte one (5-byte body): the smallest cases where a cut
        # sized from a 4-byte length prefix lands inside the header or
        # exactly on its end.
        frame = BinaryChannelCodec().encode(Bye(reason=reason))
        short = truncate_frame_bytes(frame)
        assert short[:HEADER.size] == frame[:HEADER.size]
        assert HEADER.size < len(short) < len(frame)
        with pytest.raises(TransportError, match="connection closed mid-frame"):
            _read_frame_of(short)

    def test_truncation_refuses_a_body_it_cannot_cut_inside(self):
        frame = BinaryChannelCodec().encode(Bye(reason=""))
        assert len(frame) == HEADER.size + 1
        with pytest.raises(ConfigurationError):
            truncate_frame_bytes(frame)


class TestQuarantineEndToEnd:
    def _run(self):
        schedule = FaultSchedule(events=(
            FaultEvent(slot=7, seat=1, kind=FAULT_CORRUPT_REPORT),
        ))
        serve_config = replace(
            serve_setup1(
                max_users=4, duration_slots=21, seed=0, expect_clients=4,
                lockstep=True,
            ),
            faults=schedule,
            report_timeout_s=0.3,
        )
        fleet_config = LoadGenConfig(num_clients=4, seed=0, faults=schedule)
        return asyncio.run(run_serve_and_mux_fleet(serve_config, fleet_config))

    def test_corrupt_report_is_quarantined_not_fatal(self):
        result, fleet = self._run()
        metrics = result.metrics

        # The bad frame was counted and dropped, nothing else.
        assert metrics.corrupt_frames == 1
        assert metrics.disconnects == 0
        assert metrics.session_resumes == 0
        assert metrics.resume_failures == 0

        # The session survived to the end of the run.
        assert {c.end_reason for c in fleet.clients} == {"complete"}
        assert metrics.joins == 4
        assert metrics.leaves == 4
        assert result.slots == 20

    def test_quarantine_costs_exactly_one_report(self):
        result, _ = self._run()
        metrics = result.metrics
        # The lost report surfaces as exactly one missed report (the
        # barrier timed out waiting for it) — the slot loop kept going.
        assert metrics.missed_reports == 1
        assert metrics.slots == 20
        summary = metrics.summary()
        assert summary["corrupt_frames"] == 1
        assert summary["missed_reports"] == 1

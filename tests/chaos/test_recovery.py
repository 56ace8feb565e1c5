"""Session-resume acceptance: scripted outages, self-healing clients.

The headline scenario from the issue: an 8-client lockstep loopback
run with scripted mid-run disconnects and reconnect enabled must end
with every seat regained inside the grace window and zero permanently
lost sessions.  The grace-expiry and resume-rejection paths are
exercised alongside.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.faults import FAULT_DISCONNECT, FaultEvent, FaultSchedule
from repro.serve.admission import REJECT_DRAINING, REJECT_RESUME
from repro.serve.config import PROTOCOL_VERSION, serve_setup1
from repro.serve.loadgen import LoadGenConfig, ReconnectPolicy
from repro.serve.mux import run_serve_and_mux_fleet
from repro.serve.protocol import JoinRequest, Reject
from repro.serve.protocol2 import BinaryChannelCodec, read_units, send_frame
from repro.serve.server import VrServeServer

async def _handshake(port, join):
    """Dial the server, send one join, return its greeting and writer."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    codec = BinaryChannelCodec()
    await send_frame(writer, codec, join)
    (unit,) = await read_units(reader, codec)
    return unit.message, writer


DISCONNECTS = FaultSchedule(events=(
    FaultEvent(slot=5, seat=1, kind=FAULT_DISCONNECT),
    FaultEvent(slot=9, seat=4, kind=FAULT_DISCONNECT),
    FaultEvent(slot=13, seat=6, kind=FAULT_DISCONNECT),
    FaultEvent(slot=17, seat=1, kind=FAULT_DISCONNECT),
))


class TestLockstepRecovery:
    def test_all_seats_regained_zero_lost(self):
        serve_config = replace(
            serve_setup1(
                max_users=8, duration_slots=31, seed=0, expect_clients=8,
                lockstep=True,
            ),
            faults=DISCONNECTS,
            resume_grace_s=5.0,
        )
        fleet_config = LoadGenConfig(
            num_clients=8, seed=0, faults=DISCONNECTS,
            reconnect=ReconnectPolicy(max_attempts=8),
        )
        result, fleet = asyncio.run(
            run_serve_and_mux_fleet(serve_config, fleet_config, 8)
        )
        metrics = result.metrics

        # Every scripted outage was followed by a resume in grace.
        assert metrics.disconnects == 4
        assert metrics.session_resumes == 4
        assert metrics.resume_failures == 0
        assert metrics.timeouts == 0

        # Zero permanently lost sessions: all eight clients completed
        # and left cleanly at end of run.
        assert {c.end_reason for c in fleet.clients} == {"complete"}
        assert metrics.joins == 8
        assert metrics.leaves == 8

        # Seats were regained, not reassigned: the fleet still covers
        # seats 0..7 exactly, and seat state survived the outage.
        assert sorted(c.seat for c in fleet.clients) == list(range(8))
        by_seat = {c.seat: c for c in fleet.clients}
        assert by_seat[1].resumes == 2
        assert by_seat[4].resumes == 1
        assert by_seat[6].resumes == 1

        # Lockstep pauses planning during an outage, so a slot-top
        # disconnect costs no missed reports at all.
        assert metrics.missed_reports == 0
        assert set(metrics.per_user_quality()) == set(range(8))

    def test_grace_expiry_releases_seat(self):
        schedule = FaultSchedule(events=(
            FaultEvent(slot=5, seat=1, kind=FAULT_DISCONNECT),
        ))
        serve_config = replace(
            serve_setup1(
                max_users=2, duration_slots=21, seed=0, expect_clients=2,
                lockstep=True,
            ),
            faults=schedule,
            resume_grace_s=0.2,
        )
        # Reconnect disabled: the dropped client never comes back.
        fleet_config = LoadGenConfig(num_clients=2, seed=0, faults=schedule)
        result, fleet = asyncio.run(
            run_serve_and_mux_fleet(serve_config, fleet_config)
        )
        metrics = result.metrics
        assert metrics.disconnects == 1
        assert metrics.session_resumes == 0
        assert metrics.resume_failures == 1
        by_seat = {c.seat: c for c in fleet.clients}
        assert by_seat[1].end_reason == "disconnected"
        # The survivor finishes the whole run.
        assert by_seat[0].end_reason == "complete"
        assert result.slots == 20


class TestPacedRecovery:
    def test_reconnect_within_slot_grace(self):
        schedule = FaultSchedule(events=(
            FaultEvent(slot=8, seat=0, kind=FAULT_DISCONNECT),
        ))
        serve_config = replace(
            serve_setup1(
                max_users=2, duration_slots=81, seed=0, expect_clients=2,
                slot_s=0.02,
            ),
            faults=schedule,
            resume_grace_slots=60,
        )
        fleet_config = LoadGenConfig(
            num_clients=2, seed=0, faults=schedule,
            reconnect=ReconnectPolicy(max_attempts=8, base_s=0.02, max_s=0.1),
        )
        result, fleet = asyncio.run(
            run_serve_and_mux_fleet(serve_config, fleet_config)
        )
        metrics = result.metrics
        assert metrics.disconnects == 1
        assert metrics.session_resumes == 1
        assert metrics.resume_failures == 0
        by_seat = {c.seat: c for c in fleet.clients}
        assert by_seat[0].end_reason == "complete"
        assert by_seat[0].resumes == 1


class TestResumeRejection:
    def test_unknown_token_is_rejected_with_resume_code(self):
        async def scenario():
            serve_config = serve_setup1(
                max_users=2, duration_slots=11, seed=0, expect_clients=1,
                lockstep=True,
            )
            server = VrServeServer(serve_config)
            await server.start()
            server_task = asyncio.ensure_future(server.run())
            try:
                answer, writer = await _handshake(
                    server.port,
                    JoinRequest(
                        client="ghost", version=PROTOCOL_VERSION,
                        token="not-a-real-token",
                    ),
                )
                writer.close()
                await writer.wait_closed()
                return answer
            finally:
                server_task.cancel()
                await asyncio.gather(server_task, return_exceptions=True)

        answer = asyncio.run(scenario())
        assert isinstance(answer, Reject)
        assert answer.code == REJECT_RESUME

    def test_resume_disabled_by_default(self):
        config = serve_setup1(max_users=2, duration_slots=11, seed=0)
        from repro.serve.config import resume_enabled

        assert config.resume_grace_s == 0.0
        assert config.resume_grace_slots == 0
        assert not resume_enabled(config)
        with pytest.raises(Exception):
            replace(config, resume_grace_s=-1.0)


class TestResumeTokenEdgeCases:
    """The three races the issue calls out: token reuse, grace expiry,
    and resume against a draining server."""

    def test_token_single_use_while_attached(self):
        # A token re-attaches a *detached* seat exactly once; while
        # the session is attached the same token matches nothing, so
        # a replayed (or stolen) token cannot hijack a live seat.
        import io

        from repro.serve.sessions import SessionRegistry

        registry = SessionRegistry(capacity=2)
        session = registry.admit(
            "mover", None, guideline_mbps=10.0, joined_slot=0
        )
        session.token = "tok-" + "a" * 12
        registry.detach(session.seat, slot=3)

        writer_b = io.BytesIO()  # stand-in transport identity
        resumed = registry.resume(session.token, writer_b)
        assert resumed is session
        assert not session.detached
        assert session.resumes == 1

        # Second presentation of the same token: no detached seat
        # matches, the resume is refused, and the live binding is
        # untouched.
        assert registry.resume(session.token, io.BytesIO()) is None
        assert session.writer is writer_b
        assert session.resumes == 1
        assert registry.total_resumes == 1

    def test_resume_after_grace_expiry_is_rejected(self):
        # The client's reconnect loses the race against the grace
        # window: the seat is released at expiry, and the late resume
        # gets a resume reject instead of a seat.  Paced mode keeps
        # the server alive long enough for the late attempt to land
        # (a lockstep run would finish before the backoff elapses).
        schedule = FaultSchedule(events=(
            FaultEvent(slot=8, seat=1, kind=FAULT_DISCONNECT),
        ))
        serve_config = replace(
            serve_setup1(
                max_users=2, duration_slots=81, seed=0, expect_clients=2,
                slot_s=0.05,
            ),
            faults=schedule,
            resume_grace_slots=4,
        )
        # Grace expires ~0.2s after the slot-8 disconnect; the first
        # reconnect attempt lands around 1s, deep into the remaining
        # ~3.6s of the run.
        fleet_config = LoadGenConfig(
            num_clients=2, seed=0, faults=schedule,
            reconnect=ReconnectPolicy(
                max_attempts=1, base_s=1.0, max_s=1.0, jitter_s=0.0,
            ),
        )
        result, fleet = asyncio.run(
            run_serve_and_mux_fleet(serve_config, fleet_config)
        )
        metrics = result.metrics
        assert metrics.disconnects == 1
        assert metrics.resume_failures == 1
        assert metrics.session_resumes == 0
        assert metrics.rejects.get(REJECT_RESUME, 0) >= 1
        by_seat = {c.seat: c for c in fleet.clients}
        assert by_seat[1].resumes == 0
        assert by_seat[1].end_reason == "resume_failed"
        assert by_seat[0].end_reason == "complete"

    def test_resume_against_draining_server_is_rejected(self):
        # A seat parks, the server starts draining, then the client's
        # resume arrives: it must be refused with the draining code —
        # granting it would park the client waiting for plans that
        # will never be sent.
        async def scenario():
            serve_config = replace(
                serve_setup1(
                    max_users=2, duration_slots=11, seed=0,
                    expect_clients=1, lockstep=True,
                ),
                resume_grace_s=5.0,
            )
            server = VrServeServer(serve_config)
            await server.start()
            try:
                welcome, writer = await _handshake(
                    server.port,
                    JoinRequest(client="drained", version=PROTOCOL_VERSION),
                )
                # Abrupt close parks the seat (resume is enabled).
                writer.transport.abort()
                for _ in range(100):
                    if server.registry.detached_sessions():
                        break
                    await asyncio.sleep(0.01)
                assert server.registry.detached_sessions()

                server.admission.start_draining()
                answer, writer2 = await _handshake(
                    server.port,
                    JoinRequest(
                        client="drained", version=PROTOCOL_VERSION,
                        token=welcome.resume_token,
                    ),
                )
                writer2.close()
                await writer2.wait_closed()
                return answer
            finally:
                await server.aclose()

        answer = asyncio.run(scenario())
        assert isinstance(answer, Reject)
        assert answer.code == REJECT_DRAINING

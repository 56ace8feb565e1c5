"""Chaos determinism: same seed + same script => same run, bit for bit.

The acceptance bar for the fault layer: two lockstep loopback runs
under the same seed and fault script must produce identical injector
timelines, identical recovery outcomes, and bit-identical QoE and
telemetry.  Without this property a failing chaos run cannot be
replayed, which would defeat the point of scripted faults.
"""

import asyncio
from dataclasses import replace

from repro.faults import (
    FAULT_CORRUPT_REPORT,
    FAULT_CRASH_CLIENT,
    FAULT_DISCONNECT,
    FAULT_STALL_READ,
    FAULT_STALL_WRITE,
    FAULT_TRUNCATE_FRAME,
    FaultEvent,
    FaultSchedule,
)
from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig, ReconnectPolicy
from repro.serve.mux import run_mux_fleet
from repro.serve.server import VrServeServer

#: Exercises every fault kind at least once against distinct seats.
ALL_KINDS_SCHEDULE = FaultSchedule(events=(
    FaultEvent(slot=4, seat=2, kind=FAULT_DISCONNECT),
    FaultEvent(slot=7, seat=5, kind=FAULT_STALL_READ, duration_s=0.02),
    FaultEvent(slot=9, seat=0, kind=FAULT_TRUNCATE_FRAME),
    FaultEvent(slot=11, seat=3, kind=FAULT_STALL_WRITE, duration_s=0.02),
    FaultEvent(slot=13, seat=4, kind=FAULT_CRASH_CLIENT),
    FaultEvent(slot=17, seat=6, kind=FAULT_CORRUPT_REPORT),
    FaultEvent(slot=21, seat=2, kind=FAULT_DISCONNECT),
))


async def _run_once():
    serve_config = replace(
        serve_setup1(
            max_users=8, duration_slots=31, seed=0, expect_clients=8,
            lockstep=True,
        ),
        faults=ALL_KINDS_SCHEDULE,
        resume_grace_s=5.0,
        report_timeout_s=1.0,
    )
    fleet_config = LoadGenConfig(
        num_clients=8, seed=0, faults=ALL_KINDS_SCHEDULE,
        reconnect=ReconnectPolicy(max_attempts=8),
    )
    server = VrServeServer(serve_config)
    await server.start()
    server_task = asyncio.ensure_future(server.run())
    try:
        # One socket per phone: a crash costs exactly one client.
        fleet = await run_mux_fleet(
            replace(fleet_config, port=server.port), fleet_config.num_clients
        )
        result = await server_task
    finally:
        if not server_task.done():
            server_task.cancel()
            await asyncio.gather(server_task, return_exceptions=True)
    return server, result, fleet


def _fingerprint(server, result, fleet):
    """Everything deterministic about a chaos run, wall-clock excluded."""
    metrics = result.metrics
    return {
        "slots": result.slots,
        "server_timeline": server.injector.timeline(),
        "server_counts": server.injector.counts,
        "quality": metrics.per_user_quality(),
        "missed_reports": metrics.missed_reports,
        "disconnects": metrics.disconnects,
        "session_resumes": metrics.session_resumes,
        "resume_failures": metrics.resume_failures,
        "corrupt_frames": metrics.corrupt_frames,
        "joins": metrics.joins,
        "leaves": metrics.leaves,
        "clients": tuple(
            (c.seat, c.end_reason, c.resumes, c.frames)
            for c in sorted(fleet.clients, key=lambda c: c.seat)
        ),
    }


class TestChaosDeterminism:
    def test_same_seed_same_script_same_run(self):
        first = _fingerprint(*asyncio.run(_run_once()))
        second = _fingerprint(*asyncio.run(_run_once()))
        assert first == second

    def test_every_server_fault_fires(self):
        server, result, fleet = asyncio.run(_run_once())
        fired = server.injector.counts
        assert fired == {
            FAULT_DISCONNECT: 2,
            FAULT_STALL_READ: 1,
            FAULT_TRUNCATE_FRAME: 1,
            FAULT_STALL_WRITE: 1,
        }
        # The timeline is exactly the server-side script in slot order.
        expected = tuple(
            e.key for e in ALL_KINDS_SCHEDULE.server_events.events
        )
        assert server.injector.timeline() == expected

    def test_recovery_outcome_is_scripted(self):
        server, result, fleet = asyncio.run(_run_once())
        metrics = result.metrics
        # disconnect x2 + truncate + crash -> four outages; every one
        # resumed inside the grace window, none expired.
        assert metrics.disconnects == 4
        assert metrics.session_resumes == 4
        assert metrics.resume_failures == 0
        assert metrics.corrupt_frames == 1
        assert result.slots == 30
        # All eight clients finish the run despite the faults.
        assert {c.end_reason for c in fleet.clients} == {"complete"}
        by_seat = {c.seat: c for c in fleet.clients}
        assert by_seat[2].resumes == 2
        assert by_seat[0].resumes == 1
        assert by_seat[4].resumes == 1

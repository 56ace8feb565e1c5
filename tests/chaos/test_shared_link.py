"""Client faults on a shared link: phones packed onto few sockets.

Eight phones ride two sockets here, four per link.  A scripted
``crash_client`` takes its whole link down — every link-mate loses
the socket, as behind a crashing proxy — and with resume enabled
every one of them must back off, rejoin with its token and finish
the run, deterministically.  In a paced run, a slow phone holds its
link's report batch back; the server degrades rather than waits, and
keeps its cadence.
"""

import asyncio
from dataclasses import replace

from repro.faults import FAULT_CRASH_CLIENT, FaultEvent, FaultSchedule
from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig, ReconnectPolicy
from repro.serve.mux import run_serve_and_mux_fleet

#: Seat 3 rides link 1 (phones 1, 3, 5, 7) of two.
CRASH = FaultSchedule(events=(
    FaultEvent(slot=9, seat=3, kind=FAULT_CRASH_CLIENT),
))
CRASHED_LINK = (1, 3, 5, 7)


def _crash_run():
    serve_config = replace(
        serve_setup1(
            max_users=8, duration_slots=31, seed=0, expect_clients=8,
            lockstep=True,
        ),
        resume_grace_s=5.0,
    )
    fleet_config = LoadGenConfig(
        num_clients=8, seed=0, faults=CRASH,
        reconnect=ReconnectPolicy(max_attempts=8),
    )
    return asyncio.run(run_serve_and_mux_fleet(serve_config, fleet_config, 2))


def _fingerprint(result, fleet):
    metrics = result.metrics
    return {
        "slots": result.slots,
        "quality": metrics.per_user_quality(),
        "telemetry": metrics.telemetry.records,
        "missed_reports": metrics.missed_reports,
        "disconnects": metrics.disconnects,
        "session_resumes": metrics.session_resumes,
        "clients": tuple(
            (c.seat, c.end_reason, c.resumes, c.frames, c.mean_viewed_quality)
            for c in fleet.clients
        ),
    }


class TestCrashOnSharedLink:
    def test_every_link_mate_resumes_once_and_completes(self):
        result, fleet = _crash_run()
        metrics = result.metrics
        assert result.slots == 30
        assert {c.end_reason for c in fleet.clients} == {"complete"}
        by_seat = {c.seat: c for c in fleet.clients}
        for seat, client in by_seat.items():
            if seat in CRASHED_LINK:
                assert client.resumes == 1, seat
                # Only the crashed slot's plan went unanswered.
                assert client.frames == 29, seat
            else:
                assert client.resumes == 0, seat
                assert client.frames == 30, seat
        assert metrics.disconnects == len(CRASHED_LINK)
        assert metrics.session_resumes == len(CRASHED_LINK)
        assert metrics.resume_failures == 0
        # No session is lost; the reports lost are exactly the crashed
        # batch, one per link-mate, and none after the resume.
        assert metrics.missed_reports == len(CRASHED_LINK)

    def test_same_script_same_run(self):
        assert _fingerprint(*_crash_run()) == _fingerprint(*_crash_run())


class TestSlowPhoneOnSharedLink:
    def test_slow_link_mate_is_degraded_and_cadence_holds(self):
        # Paced 5 ms slots: the slow phone sits on each plan for 50 ms,
        # so its link's batches fall behind lag_degrade_slots at once.
        serve_config = replace(
            serve_setup1(
                max_users=2, duration_slots=41, seed=0, expect_clients=2,
                slot_s=0.005,
            ),
            lag_degrade_slots=2,
        )
        fleet_config = LoadGenConfig(
            num_clients=2, seed=0, slow_clients=1, slow_latency_s=0.05,
        )
        result, fleet = asyncio.run(
            run_serve_and_mux_fleet(serve_config, fleet_config, 1)
        )
        assert result.slots == 40
        assert result.metrics.degraded_user_slots > 0
        assert {c.end_reason for c in fleet.clients} == {"complete"}

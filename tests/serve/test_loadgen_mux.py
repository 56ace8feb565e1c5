"""The fleet driver: determinism, socket packing and link sharing.

The fleet drives hundreds of virtual clients over a handful of
sockets, but each virtual client's *behaviour* — its motion trace,
its phone model, its QoE ledger — is keyed by seat, never by socket.
Pinned here:

* **determinism** — the same config produces bit-identical per-seat
  ledgers run after run, whatever the connection count;
* **link sharing** — phones that rejoin one endpoint together share
  one dial, and a finished run leaves no socket or pump task behind.

Every frame is channel-tagged whatever the connection count, so one
phone per socket (the testbed's layout) takes the same path as a
packed link.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.faults import FAULT_CRASH_CLIENT, FaultEvent, FaultSchedule
from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig, ReconnectPolicy
from repro.serve.mux import _MuxFleet, run_mux_fleet, run_serve_and_mux_fleet
from repro.serve.server import VrServeServer


def _lockstep_config(num, slots, seed):
    return serve_setup1(
        max_users=num, duration_slots=slots, seed=seed,
        expect_clients=num, lockstep=True,
    )


def _mux_run(num, slots, seed, connections):
    return asyncio.run(
        run_serve_and_mux_fleet(
            _lockstep_config(num, slots, seed),
            LoadGenConfig(num_clients=num, seed=seed),
            connections,
        )
    )


def _ledger(fleet):
    return {
        client.seat: (
            client.frames,
            client.displayed,
            client.mean_viewed_quality,
            client.mean_delay_slots,
            client.fps,
            client.end_reason,
            client.server_summary,
        )
        for client in fleet.clients
    }


class TestDeterminism:
    def test_hundred_clients_identical_ledgers_across_runs(self):
        first_result, first = _mux_run(100, 11, 3, 4)
        second_result, second = _mux_run(100, 11, 3, 4)
        assert len(first.clients) == 100
        assert {c.end_reason for c in first.clients} == {"complete"}
        assert _ledger(first) == _ledger(second)
        assert (
            first_result.metrics.telemetry.records
            == second_result.metrics.telemetry.records
        )

    def test_connection_count_does_not_change_ledgers(self):
        """Seats, not sockets, key client behaviour: packing the same
        fleet onto 2 or 8 connections yields the same ledgers."""
        _, narrow = _mux_run(16, 21, 9, 2)
        _, wide = _mux_run(16, 21, 9, 8)
        assert _ledger(narrow) == _ledger(wide)


class TestPacedSmoke:
    def test_paced_mux_run_completes(self):
        serve_config = serve_setup1(
            max_users=12, duration_slots=21, seed=1, expect_clients=12,
        )
        result, fleet = asyncio.run(
            run_serve_and_mux_fleet(
                serve_config,
                LoadGenConfig(num_clients=12, seed=1),
                3,
            )
        )
        assert result.slots == 20
        assert len(fleet.clients) == 12
        assert {c.end_reason for c in fleet.clients} == {"complete"}


class TestConfigValidation:
    def test_rejects_zero_connections(self):
        with pytest.raises(ConfigurationError, match="connections"):
            asyncio.run(
                run_mux_fleet(LoadGenConfig(num_clients=2, port=1), 0)
            )

    def test_rejects_unbound_port(self):
        with pytest.raises(ConfigurationError, match="port"):
            asyncio.run(run_mux_fleet(LoadGenConfig(num_clients=2), 2))

    @pytest.mark.parametrize("name, value", [
        ("latency_s", float("nan")),
        ("jitter_s", float("nan")),
        ("slow_latency_s", True),
        ("latency_s", "0.01"),
        ("num_clients", 2.5),
        ("num_clients", True),
        ("slow_clients", 0.5),
        ("port", 0.5),
        ("seed", 2.5),
    ])
    def test_fleet_refuses_what_it_cannot_run(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            LoadGenConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("max_attempts", 1.5),
        ("max_attempts", True),
        ("base_s", float("nan")),
        ("max_s", float("nan")),
        ("jitter_s", float("nan")),
        ("multiplier", float("nan")),
    ])
    def test_reconnect_refuses_what_it_cannot_run(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            ReconnectPolicy(**{name: value})


class TestLinkSharing:
    def test_concurrent_rejoins_share_one_link_and_leave_nothing_open(self):
        """A crash drops the one shared link; with jitter off its four
        riders back off identically and redial the same endpoint at
        once.  One dial must carry them all, and run() must close
        every link it opened, the dead one included."""
        schedule = FaultSchedule(events=(
            FaultEvent(slot=5, seat=0, kind=FAULT_CRASH_CLIENT),
        ))
        serve_config = replace(
            _lockstep_config(4, 21, 0), resume_grace_s=5.0
        )
        fleet_config = LoadGenConfig(
            num_clients=4, seed=0, faults=schedule,
            reconnect=ReconnectPolicy(max_attempts=4, jitter_s=0.0),
        )

        async def scenario():
            server = VrServeServer(serve_config)
            await server.start()
            server_task = asyncio.ensure_future(server.run())
            fleet = _MuxFleet(replace(fleet_config, port=server.port), 1)
            report = await fleet.run()
            await server_task
            return fleet, report

        fleet, report = asyncio.run(scenario())
        assert {c.end_reason for c in report.clients} == {"complete"}
        assert [c.resumes for c in report.clients] == [1, 1, 1, 1]
        # The first link and exactly one shared redial.
        assert len(fleet.opened) == 2
        assert fleet.links == {}
        for link in fleet.opened:
            assert link.closed
            assert link.writer.transport.is_closing()
            assert link._pump_task.done()

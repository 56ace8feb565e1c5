"""Multiplexed load generator: determinism and real-socket parity.

The mux fleet drives hundreds of virtual clients over a handful of
sockets, but each virtual client's *behaviour* — its motion trace,
its phone model, its QoE ledger — is keyed by seat, exactly like a
real-socket client.  Two properties follow and are pinned here:

* **determinism** — the same config produces bit-identical per-seat
  ledgers run after run, whatever the connection count;
* **parity** — under lockstep, the mux fleet's ledgers match a
  real-socket fleet's, seat for seat.  Multiplexing is a transport
  optimisation, invisible to everything above it.

Config validation is pinned too: the mux path refuses (rather than
silently ignores) the per-client shaping knobs it cannot honour.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.faults.schedule import FaultSchedule
from repro.serve.config import serve_setup1
from repro.serve.loadgen import (
    LoadGenConfig,
    ReconnectPolicy,
    run_serve_and_fleet,
)
from repro.serve.mux import run_mux_fleet, run_serve_and_mux_fleet


def _lockstep_config(num, slots, seed, kernel=False):
    config = serve_setup1(
        max_users=num, duration_slots=slots, seed=seed,
        expect_clients=num, lockstep=True,
    )
    return replace(config, kernel=kernel) if kernel else config


def _mux_run(num, slots, seed, connections, kernel=False):
    return asyncio.run(
        run_serve_and_mux_fleet(
            _lockstep_config(num, slots, seed, kernel=kernel),
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
        first_result, first = _mux_run(100, 11, 3, 4, kernel=True)
        second_result, second = _mux_run(100, 11, 3, 4, kernel=True)
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


class TestRealSocketParity:
    def test_mux_ledgers_match_real_socket_fleet(self):
        num, slots, seed = 8, 31, 5
        _, real = asyncio.run(
            run_serve_and_fleet(
                _lockstep_config(num, slots, seed),
                LoadGenConfig(num_clients=num, seed=seed),
            )
        )
        _, mux = _mux_run(num, slots, seed, 3)
        assert _ledger(real) == _ledger(mux)


class TestPacedSmoke:
    def test_paced_mux_run_completes(self):
        serve_config = serve_setup1(
            max_users=12, duration_slots=21, seed=1, expect_clients=12,
        )
        result, fleet = asyncio.run(
            run_serve_and_mux_fleet(
                replace(serve_config, kernel=True),
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

    def test_rejects_per_client_shaping_knobs(self):
        for shaped in (
            LoadGenConfig(num_clients=2, port=1, slow_clients=1),
            LoadGenConfig(
                num_clients=2, port=1, churn_clients=1,
                churn_leave_after_slots=5,
            ),
            LoadGenConfig(
                num_clients=2, port=1,
                reconnect=ReconnectPolicy(max_attempts=1),
            ),
            LoadGenConfig(num_clients=2, port=1, faults=FaultSchedule()),
        ):
            with pytest.raises(ConfigurationError, match="mux mode"):
                asyncio.run(run_mux_fleet(shaped, 2))

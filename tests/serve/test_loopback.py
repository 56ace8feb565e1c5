"""End-to-end loopback tests: server + client fleet over real sockets.

These are the acceptance tests for the serving subsystem: a client
fleet replays motion traces against a live server over 127.0.0.1 and
the realized per-user QoE is compared against the in-process
:class:`~repro.system.experiment.SystemExperiment`.  Lockstep mode
removes wall-clock influence, so the equivalence and determinism
assertions are exact, not statistical.
"""

import asyncio
from dataclasses import replace

from repro.serve.admission import REJECT_CAPACITY
from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig
from repro.serve.mux import run_serve_and_mux_fleet
from repro.system.experiment import setup1_config
from tests.system._lockstep import assert_served_equals_experiment


def run_loopback(serve_config, fleet_config):
    return asyncio.run(run_serve_and_mux_fleet(serve_config, fleet_config))


class TestSmoke:
    def test_two_user_paced_run_shuts_down_cleanly(self):
        serve_config = serve_setup1(
            max_users=2, duration_slots=21, seed=0, expect_clients=2,
        )
        result, fleet = run_loopback(
            serve_config, LoadGenConfig(num_clients=2, seed=0)
        )
        assert result.slots == 20
        assert result.metrics.slots == 20
        assert result.metrics.joins == 2
        assert result.metrics.leaves == 2
        assert result.metrics.timeouts == 0
        assert result.metrics.rejects == {}
        assert result.deadline_hit_rate > 0.0
        assert len(fleet.admitted) == 2
        assert {c.end_reason for c in fleet.admitted} == {"complete"}
        # Every client got the server's end-of-run summary.
        for client in fleet.admitted:
            assert client.server_summary is not None
            assert "qoe" in client.server_summary

    def test_stage_latencies_recorded_for_every_slot(self):
        serve_config = serve_setup1(
            max_users=2, duration_slots=11, seed=0, expect_clients=2,
            lockstep=True,
        )
        result, _ = run_loopback(
            serve_config, LoadGenConfig(num_clients=2, seed=0)
        )
        for stage in ("fold", "allocate", "encode", "send", "slot"):
            assert len(result.metrics.stage_latency[stage]) == result.slots


class TestOverload:
    def test_client_beyond_capacity_is_rejected_with_reason(self):
        serve_config = serve_setup1(
            max_users=2, duration_slots=11, seed=0, expect_clients=2,
            lockstep=True,
        )
        result, fleet = run_loopback(
            serve_config, LoadGenConfig(num_clients=3, seed=0)
        )
        assert len(fleet.admitted) == 2
        assert len(fleet.rejected) == 1
        rejected = fleet.rejected[0]
        assert rejected.reject_code == REJECT_CAPACITY
        assert "2/2" in rejected.reject_reason
        assert result.metrics.rejects == {REJECT_CAPACITY: 1}
        # The admitted clients still complete the run.
        assert {c.end_reason for c in fleet.admitted} == {"complete"}

    def test_slow_client_degrades_without_stalling_others(self):
        # Paced loop with a 5 ms slot: a client that sits on each plan
        # for 100 ms falls behind lag_degrade_slots immediately.
        serve_config = replace(
            serve_setup1(
                max_users=2, duration_slots=41, seed=0, expect_clients=2,
                slot_s=0.005,
            ),
            lag_degrade_slots=2,
        )
        fleet_config = LoadGenConfig(
            num_clients=2, seed=0, slow_clients=1, slow_latency_s=0.1,
        )
        result, fleet = run_loopback(serve_config, fleet_config)
        # The loop ran all slots at cadence; the slow client was
        # degraded to the minimum level, not waited for.
        assert result.slots == 40
        assert result.metrics.degraded_user_slots > 0
        fast = [c for c in fleet.admitted if c.name == "client-1"]
        assert fast and fast[0].frames >= 39


class TestChurn:
    def test_leaver_frees_seat_and_run_continues(self):
        serve_config = serve_setup1(
            max_users=2, duration_slots=41, seed=0, expect_clients=2,
        )
        fleet_config = LoadGenConfig(
            num_clients=2, seed=0, churn_clients=1, churn_leave_after_slots=5,
        )
        result, fleet = run_loopback(serve_config, fleet_config)
        churned = [c for c in fleet.admitted if c.end_reason == "churned"]
        stayed = [c for c in fleet.admitted if c.end_reason == "complete"]
        assert len(churned) == 1
        assert len(stayed) == 1
        assert result.metrics.leaves == 2
        assert result.slots == 40


class TestDeterminism:
    def test_seeded_lockstep_runs_are_identical(self):
        def one_run():
            serve_config = serve_setup1(
                max_users=4, duration_slots=31, seed=7, expect_clients=4,
                lockstep=True,
            )
            result, fleet = run_loopback(
                serve_config, LoadGenConfig(num_clients=4, seed=7)
            )
            return (
                result.metrics.per_user_quality(),
                fleet.mean_viewed_quality(),
            )

        first_server, first_fleet = one_run()
        second_server, second_fleet = one_run()
        assert first_server == second_server
        assert first_fleet == second_fleet
        assert set(first_server) == {0, 1, 2, 3}


class TestExperimentEquivalence:
    def test_eight_clients_match_in_process_setup1(self):
        """8 clients, >= 50 slots: every per-user ledger summary and
        telemetry record equals the in-process experiment under the
        same seed — lockstep makes it exact."""
        slots = 61
        serve_config = serve_setup1(
            max_users=8, duration_slots=slots, seed=0, expect_clients=8,
            lockstep=True,
        )
        result, fleet = run_loopback(
            serve_config, LoadGenConfig(num_clients=8, seed=0)
        )
        assert result.slots == slots - 1 >= 50
        assert result.deadline_hit_rate >= 0.95

        assert serve_config.experiment == setup1_config(
            duration_slots=slots, seed=0
        )
        assert_served_equals_experiment(
            serve_config.experiment, result, fleet
        )

"""Shard-kill chaos acceptance: migrate everything, lose nothing.

The headline scenario from the issue: a lockstep cluster with a
scripted ``shard_kill`` must migrate the dying shard's sessions to the
survivors with **zero lost reports** — every migrated client finishes
the run, its QoE ledger intact — and the whole timeline must be
deterministic for a given seed, because migrations happen at the
shards' slot-hook points, not at arbitrary wall-clock moments.

Seed 0 hash placement (pinned by ``TestPlacement``): clients 0, 2, 3
live on shard 1, client 1 on shard 0.  Killing shard 1 therefore
forces three simultaneous migrations into shard 0's spare seats.
"""

import asyncio
from dataclasses import replace

from repro.faults import (
    FAULT_MIGRATION_STALL,
    FAULT_SHARD_KILL,
    FaultEvent,
    FaultSchedule,
)
from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig, ReconnectPolicy
from repro.shard.config import ShardClusterConfig
from repro.shard.coordinator import ShardCoordinator, run_cluster_and_fleet
from repro.shard.router import SessionRouter
from repro.shard.supervisor import ShardSupervisor

KILL_SHARD_1 = FaultSchedule(events=(
    FaultEvent(slot=10, seat=1, kind=FAULT_SHARD_KILL),
))


def cluster_config(faults, max_users=4, slots=40, seed=0):
    base = replace(
        serve_setup1(
            max_users=max_users, duration_slots=slots, seed=seed,
            lockstep=True,
        ),
        resume_grace_s=5.0,
    )
    return ShardClusterConfig(
        base=base, num_shards=2, expect_clients=4, faults=faults
    )


def fleet_config(seed=0):
    return LoadGenConfig(
        num_clients=4, seed=seed,
        reconnect=ReconnectPolicy(max_attempts=5),
    )


def run_kill_scenario(faults=KILL_SHARD_1):
    return asyncio.run(
        run_cluster_and_fleet(cluster_config(faults), fleet_config())
    )


class TestPlacement:
    def test_seed_zero_puts_three_clients_on_shard_one(self):
        router = SessionRouter(seed=0, num_shards=2)
        homes = {f"client-{i}": router.home_shard(f"client-{i}")
                 for i in range(4)}
        assert homes == {
            "client-0": 1, "client-1": 0, "client-2": 1, "client-3": 1,
        }


class TestShardKill:
    def test_zero_lost_reports_on_mid_run_kill(self):
        result, fleet = run_kill_scenario()

        # The dying shard evacuated all three of its sessions.
        assert result.migrations == 3
        shard0, shard1 = result.shards
        assert shard1.metrics.migrations_out == 3
        assert shard0.metrics.migrations_in == 3

        # Zero lost reports anywhere: migrated seats leave with a
        # complete ledger and rejoin excluded from the barrier until
        # their first plan on the new shard.
        assert result.missed_reports == 0
        assert shard0.metrics.timeouts == 0

        # Shard 1 died at its scripted slot; shard 0 ran the full run.
        assert shard1.metrics.slots == 10
        assert shard0.metrics.slots == 39

        # Every client — migrated or not — finished the run.
        by_name = {c.name: c for c in fleet.clients}
        assert {c.end_reason for c in fleet.clients} == {"complete"}
        for name in ("client-0", "client-2", "client-3"):
            mover = by_name[name]
            assert mover.resumes == 1
            assert mover.redirects == 2
        survivor = by_name["client-1"]
        assert survivor.resumes == 0
        assert survivor.redirects == 1

    def test_kill_timeline_is_deterministic(self):
        def artifacts():
            result, fleet = run_kill_scenario()
            telemetry = [
                [r.as_dict() for r in shard.metrics.telemetry.records]
                for shard in result.shards
            ]
            clients = [
                (c.name, c.seat, c.frames, c.end_reason, c.redirects,
                 c.resumes)
                for c in fleet.clients
            ]
            counters = [
                (shard.metrics.migrations_in, shard.metrics.migrations_out,
                 shard.metrics.slots, shard.metrics.missed_reports)
                for shard in result.shards
            ]
            return telemetry, clients, counters

        assert artifacts() == artifacts()

    def test_full_cluster_kill_degrades_gracefully(self):
        # No spare capacity anywhere: the dying shard cannot evacuate,
        # so it ends its sessions cleanly instead of stranding them.
        cluster = cluster_config(KILL_SHARD_1, max_users=2)
        result, fleet = asyncio.run(
            run_cluster_and_fleet(cluster, fleet_config())
        )
        assert result.migrations == 0
        assert result.missed_reports == 0
        assert {c.end_reason for c in fleet.clients} == {"complete"}
        # The killed shard's clients simply got a shorter session.
        by_name = {c.name: c for c in fleet.clients}
        assert by_name["client-1"].frames > by_name["client-0"].frames


class TestMigrationStall:
    def test_stalled_redirect_is_absorbed_by_resume_barrier(self):
        faults = FaultSchedule(events=(
            FaultEvent(slot=10, seat=1, kind=FAULT_SHARD_KILL),
            FaultEvent(
                slot=0, seat=1, kind=FAULT_MIGRATION_STALL, duration_s=0.1,
            ),
        ))
        result, fleet = run_kill_scenario(faults)
        # The stall delays one client's redirect delivery, but the
        # target's resume barrier holds the slot loop until the
        # wanderer arrives: still zero lost reports.
        assert result.migrations == 3
        assert result.missed_reports == 0
        assert {c.end_reason for c in fleet.clients} == {"complete"}


class TestSupervisorRestart:
    def test_killed_shard_respawns_and_serves_latecomer(self):
        base = replace(
            serve_setup1(
                max_users=4, duration_slots=40, seed=0, lockstep=True,
            ),
            resume_grace_s=5.0,
        )
        cluster = ShardClusterConfig(
            base=base, num_shards=2, expect_clients=4, faults=KILL_SHARD_1,
        )

        async def scenario():
            coordinator = ShardCoordinator(cluster)
            supervisor = ShardSupervisor(coordinator)
            run_task = asyncio.ensure_future(supervisor.run())

            async def fleet_task():
                from repro.errors import TransportError
                from repro.serve.mux import run_mux_fleet

                while True:
                    try:
                        port = coordinator.port
                        break
                    except TransportError:
                        await asyncio.sleep(0.01)
                return await run_mux_fleet(replace(fleet_config(), port=port))

            fleet = await fleet_task()
            result = await run_task
            return supervisor, result, fleet

        supervisor, result, fleet = asyncio.run(scenario())
        # The kill was followed by one respawn; nobody joined the
        # standby (the fleet was already migrated), so it closed
        # cleanly without producing a run.
        assert supervisor.restarts == 1
        assert result.restarted == ()
        assert result.migrations == 3
        assert result.missed_reports == 0
        assert {c.end_reason for c in fleet.clients} == {"complete"}

"""Multiplexed fleets against a shard cluster.

The coordinator's front door answers one binary join with a redirect;
a multiplexed fleet then re-dials each virtual client's shard and
multiplexes every client bound for the same shard onto one shared
socket.  That sharing is what these tests pin down:

* redirected virtual clients seat across every shard and complete;
* a mid-run migration redirect is **channel-tagged** and must not
  close the shared connection under its link-mates — only the moved
  client re-places, the others never notice.
"""

import asyncio
from dataclasses import replace

from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig
from repro.serve.mux import run_mux_fleet
from repro.shard.config import ShardClusterConfig
from repro.shard.coordinator import ShardCoordinator


def lockstep_base(max_users=2, slots=21, seed=0, **kwargs):
    return replace(
        serve_setup1(
            max_users=max_users, duration_slots=slots, seed=seed,
            lockstep=True,
        ),
        **kwargs,
    )


async def _run_cluster_mux(cluster, fleet_config, connections):
    coordinator = ShardCoordinator(cluster)
    await coordinator.start()
    run_task = asyncio.ensure_future(coordinator.run())
    try:
        fleet = await run_mux_fleet(
            replace(
                fleet_config,
                host=cluster.base.host,
                port=coordinator.port,
            ),
            connections,
        )
        result = await run_task
    finally:
        if not run_task.done():
            run_task.cancel()
            await asyncio.gather(run_task, return_exceptions=True)
    return result, fleet


class TestFrontDoor:
    def test_mux_fleet_seats_across_every_shard(self):
        cluster = ShardClusterConfig(
            base=lockstep_base(), num_shards=2, expect_clients=4
        )
        result, fleet = asyncio.run(
            _run_cluster_mux(
                cluster, LoadGenConfig(num_clients=4, seed=0), 2
            )
        )
        assert len(result.shards) == 2
        assert [r.metrics.joins for r in result.shards] == [2, 2]
        assert result.missed_reports == 0
        assert {c.end_reason for c in fleet.clients} == {"complete"}
        # One coordinator hop per virtual client, exactly like a
        # phone with a socket to itself.
        assert [c.redirects for c in fleet.clients] == [1, 1, 1, 1]

    def test_cluster_mux_run_is_deterministic(self):
        cluster = ShardClusterConfig(
            base=lockstep_base(slots=11), num_shards=2, expect_clients=4
        )

        def artifacts():
            result, fleet = asyncio.run(
                _run_cluster_mux(
                    cluster, LoadGenConfig(num_clients=4, seed=0), 2
                )
            )
            telemetry = [
                [r.as_dict() for r in shard.metrics.telemetry.records]
                for shard in result.shards
            ]
            clients = [
                (c.name, c.seat, c.frames, c.end_reason, c.redirects)
                for c in fleet.clients
            ]
            return telemetry, clients

        assert artifacts() == artifacts()


class TestLiveRebalanceUnderMux:
    def test_migration_redirect_spares_link_mates(self):
        """All virtual clients of a shard share ONE socket here
        (connections=1), so the migration redirect must leave the
        connection open for the mover's link-mate — closing it, as a
        per-client server would, costs the mate its session."""
        base = lockstep_base(max_users=4, slots=41, resume_grace_s=5.0)
        cluster = ShardClusterConfig(
            base=base, num_shards=2, expect_clients=4
        )

        async def scenario():
            coordinator = ShardCoordinator(cluster)
            await coordinator.start()
            run_task = asyncio.ensure_future(coordinator.run())

            async def move_later():
                await coordinator.wait_cluster_ready()
                source = coordinator.router.assignment("client-0")
                coordinator.request_migration("client-0", 1 - source)
                return source

            mover = asyncio.ensure_future(move_later())
            fleet_task = asyncio.ensure_future(
                run_mux_fleet(
                    LoadGenConfig(
                        num_clients=4, seed=0, port=coordinator.port
                    ),
                    1,
                )
            )
            fleet, result = await asyncio.gather(fleet_task, run_task)
            return fleet, result, await mover

        fleet, result, source = asyncio.run(scenario())
        target = 1 - source

        assert result.migrations == 1
        assert result.shards[source].metrics.migrations_out == 1
        assert result.shards[target].metrics.migrations_in == 1
        assert result.missed_reports == 0
        by_name = {c.name: c for c in fleet.clients}
        moved = by_name["client-0"]
        assert moved.end_reason == "complete"
        assert moved.resumes == 1
        assert moved.redirects == 2
        # Every other client — including the mover's link-mates on
        # the shared socket — ran undisturbed.
        for name, client in by_name.items():
            if name == "client-0":
                continue
            assert client.end_reason == "complete", name
            assert client.resumes == 0, name
            assert client.redirects == 1, name

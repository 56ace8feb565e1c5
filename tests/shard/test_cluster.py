"""Coordinator acceptance: full cluster runs over loopback sockets.

Covers the shard subsystem's three headline contracts: a two-shard
cluster fills every seat through join-time rebalancing, a one-shard
cluster is inert (its shard produces exactly the artifacts a plain
single server would), and a live rebalance migration moves a session
between running shards without losing QoE state.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.perf.bench import bench_scale
from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig, ReconnectPolicy
from repro.serve.mux import run_mux_fleet, run_serve_and_mux_fleet
from repro.shard.config import ShardClusterConfig
from repro.shard.coordinator import ShardCoordinator, run_cluster_and_fleet
from repro.shard.supervisor import RestartPolicy


def lockstep_base(max_users=2, slots=21, seed=0, **kwargs):
    return replace(
        serve_setup1(
            max_users=max_users, duration_slots=slots, seed=seed,
            lockstep=True,
        ),
        **kwargs,
    )


def run_cluster(cluster, fleet_config):
    return asyncio.run(run_cluster_and_fleet(cluster, fleet_config))


class TestTwoShardCluster:
    def test_full_house_fills_every_shard(self):
        cluster = ShardClusterConfig(
            base=lockstep_base(), num_shards=2, expect_clients=4
        )
        result, fleet = run_cluster(
            cluster, LoadGenConfig(num_clients=4, seed=0)
        )
        assert len(result.shards) == 2
        # Join-time rebalancing filled both shards to capacity.
        assert [r.metrics.joins for r in result.shards] == [2, 2]
        assert result.missed_reports == 0
        assert result.migrations == 0
        assert {c.end_reason for c in fleet.clients} == {"complete"}
        # Every client went through exactly one coordinator redirect.
        assert [c.redirects for c in fleet.clients] == [1, 1, 1, 1]
        # Each shard ran its full slot budget.
        assert [r.metrics.slots for r in result.shards] == [20, 20]

    def test_summary_labels_shards(self):
        cluster = ShardClusterConfig(
            base=lockstep_base(slots=11), num_shards=2, expect_clients=4
        )
        result, _ = run_cluster(cluster, LoadGenConfig(num_clients=4, seed=0))
        summary = result.summary()
        shard_labels = [entry["shard"] for entry in summary["shards"]]
        assert shard_labels == [0, 1]
        assert summary["missed_reports"] == 0

    def test_deterministic_across_runs(self):
        cluster = ShardClusterConfig(
            base=lockstep_base(), num_shards=2, expect_clients=4
        )

        def artifacts():
            result, fleet = run_cluster(
                cluster, LoadGenConfig(num_clients=4, seed=0)
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


class TestOneShardInertness:
    def test_matches_plain_single_server(self):
        base = lockstep_base(seed=7, slots=31)

        # The fleet admits its phones one at a time, so the plain
        # server waits for both, as the cluster does.
        plain_result, plain_fleet = asyncio.run(
            run_serve_and_mux_fleet(
                replace(base, expect_clients=2),
                LoadGenConfig(num_clients=2, seed=7),
            )
        )
        cluster = ShardClusterConfig(base=base, num_shards=1,
                                     expect_clients=2)
        shard_result, shard_fleet = run_cluster(
            cluster, LoadGenConfig(num_clients=2, seed=7)
        )
        shard = shard_result.shards[0]

        # The shard's metrics match the plain server's exactly, wall
        # clock aside (stage latencies are real timing in both modes).
        plain_summary = plain_result.metrics.summary()
        shard_summary = shard.metrics.summary()
        plain_summary.pop("stage_latency_ms")
        shard_summary.pop("stage_latency_ms")
        assert plain_summary == shard_summary

        # Telemetry — the planner's full decision record — is
        # bit-identical.
        assert [r.as_dict() for r in shard.metrics.telemetry.records] == [
            r.as_dict() for r in plain_result.metrics.telemetry.records
        ]

        # Clients saw the same session: same seats, frames, levels.
        plain_clients = [
            (c.name, c.seat, c.frames, c.end_reason, c.resumes)
            for c in plain_fleet.clients
        ]
        shard_clients = [
            (c.name, c.seat, c.frames, c.end_reason, c.resumes)
            for c in shard_fleet.clients
        ]
        assert plain_clients == shard_clients
        # The only cluster artifact is the extra coordinator hop.
        assert all(c.redirects == 1 for c in shard_fleet.clients)
        assert all(c.redirects == 0 for c in plain_fleet.clients)


class TestLiveRebalance:
    def test_requested_migration_moves_session_mid_run(self):
        base = lockstep_base(max_users=4, slots=41, resume_grace_s=5.0)
        cluster = ShardClusterConfig(
            base=base, num_shards=2, expect_clients=2
        )

        async def scenario():
            coordinator = ShardCoordinator(cluster)
            await coordinator.start()
            run_task = asyncio.ensure_future(coordinator.run())

            async def move_later():
                # Queue the rebalance as soon as the fleet is seated;
                # the source shard picks it up at its next migration
                # point (lockstep runs finish in milliseconds, so
                # there is no "wait a while" here).
                await coordinator.wait_cluster_ready()
                source = coordinator.router.assignment("client-0")
                coordinator.request_migration("client-0", 1 - source)
                return source

            mover = asyncio.ensure_future(move_later())
            fleet = await asyncio.gather(
                asyncio.ensure_future(fleet_at(coordinator.port)),
                run_task,
            )
            return fleet[0], fleet[1], await mover

        async def fleet_at(port):
            return await run_mux_fleet(
                LoadGenConfig(
                    num_clients=2, seed=0, port=port,
                    reconnect=ReconnectPolicy(max_attempts=5),
                )
            )

        fleet, result, source = asyncio.run(scenario())
        target = 1 - source

        assert result.migrations == 1
        assert result.shards[source].metrics.migrations_out == 1
        assert result.shards[target].metrics.migrations_in == 1
        assert result.missed_reports == 0
        by_name = {c.name: c for c in fleet.clients}
        mover = by_name["client-0"]
        assert mover.end_reason == "complete"
        assert mover.resumes == 1
        assert mover.redirects == 2
        other = by_name["client-1"]
        assert other.end_reason == "complete"
        assert other.resumes == 0


class TestRestartPolicy:
    def test_backoff_schedule(self):
        policy = RestartPolicy(
            max_restarts=3, base_s=0.1, multiplier=2.0, max_s=0.3
        )
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.3)

    def test_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(ConfigurationError):
            RestartPolicy(base_s=0.0)
        with pytest.raises(ConfigurationError):
            RestartPolicy(max_s=0.01, base_s=0.05)


class TestBenchScale:
    def test_rejects_bad_arguments(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            bench_scale(shard_counts=())
        with pytest.raises(ConfigurationError):
            bench_scale(slots=2)
        with pytest.raises(ConfigurationError):
            bench_scale(users_per_shard=0)
        with pytest.raises(ConfigurationError):
            bench_scale(deadline_target=0.0)

    def test_small_sweep_shape(self):
        payload = bench_scale(
            shard_counts=(1,), users_per_shard=1, slots=6, seed=0
        )
        assert payload["kind"] == "scale"
        assert payload["users_sustained"] in (0, 1)
        (entry,) = payload["clusters"]
        assert entry["shards"] == 1.0
        assert entry["users"] == 1.0
        assert entry["missed_reports"] == 0.0

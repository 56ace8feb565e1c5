"""Cluster-wide observability acceptance: the ISSUE 9 tentpole.

One scenario carries the headline contract: a two-shard lockstep
cluster with tracing, SLO engine, and the federated endpoint enabled
runs one scripted migration; mid-run the cluster ``/metrics`` page
passes ``validate_exposition`` and ``/healthz`` rolls up per-shard
health, and afterwards the per-shard trace files stitch into one
timeline per session with an explicit ``migration`` bridge between
the two shard segments.
"""

import asyncio
import json
import urllib.request
from dataclasses import replace

import pytest

from repro.errors import TransportError
from repro.obs.buildinfo import BUILD_INFO_METRIC
from repro.obs.config import ObsConfig
from repro.obs.promtext import validate_exposition
from repro.obs.slo import default_slo_config
from repro.obs.spans import read_span_stream_tolerant
from repro.obs.stitch import stitch_spans
from repro.serve.loadgen import LoadGenConfig, ReconnectPolicy, run_fleet
from repro.shard.config import ShardClusterConfig, derive_trace_path
from repro.shard.coordinator import ShardCoordinator
from tests.shard.test_cluster import lockstep_base, run_cluster


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode("utf-8")


def _obs(tmp_path, **overrides):
    return ObsConfig(
        enabled=True,
        trace_path=str(tmp_path / "run.jsonl"),
        sample_every=1,
        slo=default_slo_config(),
        **overrides,
    )


def _load_spans(path):
    with open(path, "r", encoding="utf-8") as handle:
        _, spans, skipped = read_span_stream_tolerant(handle)
    assert skipped == 0
    return spans


class TestClusterObsAcceptance:
    @pytest.fixture(scope="class")
    def scenario(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("cluster-obs")
        base = lockstep_base(
            max_users=4, slots=41, resume_grace_s=5.0, obs=_obs(tmp_path)
        )
        cluster = ShardClusterConfig(
            base=base, num_shards=2, expect_clients=2, metrics_port=0
        )

        async def run():
            coordinator = ShardCoordinator(cluster)
            await coordinator.start()
            run_task = asyncio.ensure_future(coordinator.run())

            async def probe():
                # Scrape the federated endpoint mid-run, right after
                # queueing the rebalance (lockstep slots are still
                # draining while the HTTP round trips happen).
                await coordinator.wait_cluster_ready()
                source = coordinator.router.assignment("client-0")
                # Let the source shard serve a few slots first so the
                # session leaves user-slot samples on *both* sides of
                # the handoff (a slot-0 migration would stitch into a
                # single segment).
                while coordinator.servers[source].metrics.slots < 5:
                    await asyncio.sleep(0)
                coordinator.request_migration("client-0", 1 - source)
                port = coordinator.metrics_port
                metrics = await asyncio.to_thread(
                    _get, f"http://127.0.0.1:{port}/metrics"
                )
                health = await asyncio.to_thread(
                    _get, f"http://127.0.0.1:{port}/healthz"
                )
                return source, metrics, health

            prober = asyncio.ensure_future(probe())
            fleet, result = await asyncio.gather(
                run_fleet(
                    LoadGenConfig(
                        num_clients=2, seed=0, port=coordinator.port,
                        reconnect=ReconnectPolicy(max_attempts=5),
                    )
                ),
                run_task,
            )
            source, metrics, health = await prober
            return {
                "tmp_path": tmp_path,
                "result": result,
                "fleet": fleet,
                "source": source,
                "metrics": metrics,
                "health": json.loads(health),
            }

        return asyncio.run(run())

    def test_migration_happened_without_misses(self, scenario):
        result = scenario["result"]
        assert result.migrations == 1
        assert result.missed_reports == 0
        mover = {c.name: c for c in scenario["fleet"].clients}["client-0"]
        assert mover.end_reason == "complete"
        assert mover.resumes == 1

    def test_federated_metrics_pass_validation(self, scenario):
        text = scenario["metrics"]
        summary = validate_exposition(text)
        assert summary.samples > 0
        # Every member contributes under its shard label; the
        # coordinator's own registry merges in alongside.
        assert 'shard="coordinator"' in text
        assert 'shard="0"' in text
        assert 'shard="1"' in text
        assert BUILD_INFO_METRIC in text
        assert "repro_slo_burn_rate" in text

    def test_healthz_rolls_up_cluster_state(self, scenario):
        health = scenario["health"]
        assert health["num_shards"] == 2
        assert health["alive_shards"] == 2
        assert health["supervisor_restarts"] == 0
        assert health["respawned_shards"] == []
        shards = health["shards"]
        assert [entry["shard"] for entry in shards] == [0, 1]
        for entry in shards:
            assert entry["alive"] is True
            assert entry["slo"]["breaching"] == []

    def test_every_member_wrote_a_trace_stream(self, scenario):
        tmp_path = scenario["tmp_path"]
        base_path = str(tmp_path / "run.jsonl")
        for member in ("coordinator", "shard0", "shard1"):
            path = derive_trace_path(base_path, member)
            assert path is not None
            assert (tmp_path / path.rsplit("/", 1)[-1]).exists()

    def test_stitched_timeline_bridges_both_shards(self, scenario):
        tmp_path = scenario["tmp_path"]
        base_path = str(tmp_path / "run.jsonl")
        streams = [
            _load_spans(derive_trace_path(base_path, member))
            for member in ("coordinator", "shard0", "shard1")
        ]
        timelines = stitch_spans(streams)
        by_client = {t.client: t for t in timelines}
        mover = by_client["client-0"]

        source = scenario["source"]
        target = 1 - source
        # The moved session lived on both shards, in handoff order,
        # with the coordinator's bridge span in between.
        assert mover.shards == (source, target)
        assert len(mover.migrations) == 1
        bridge = mover.migrations[0]
        assert (bridge.source_shard, bridge.target_shard) == (source, target)
        assert bridge.reason == "rebalance"
        # The bridge sits between the two residence windows in
        # handoff-chain order.  Each shard counts its own slots, so
        # slot numbers are only compared within one shard.
        before, after = mover.segments
        assert bridge.source_shard == before.shard
        assert bridge.target_shard == after.shard
        kinds = [event["kind"] for event in mover.events()]
        assert kinds == ["segment", "migration", "segment"]
        # On the source: a sample in every slot up to the handoff.
        assert (before.first_slot, before.user_slots) == (0, bridge.slot)
        assert before.last_slot == bridge.slot - 1
        # On the target: a sample in every slot from re-attach to the
        # end of the run (40 slots, 0..39), with no gap.
        assert after.last_slot == 39
        assert after.user_slots == after.last_slot - after.first_slot + 1

        # The session that stayed put has one segment and no bridge.
        stayers = [t for t in timelines if t is not mover and t.segments]
        assert len(stayers) == 1
        assert len(stayers[0].shards) == 1
        assert stayers[0].migrations == ()


class TestClusterObsConfig:
    def test_metrics_port_requires_endpoint(self):
        cluster = ShardClusterConfig(
            base=lockstep_base(), num_shards=2, expect_clients=4
        )
        coordinator = ShardCoordinator(cluster)
        with pytest.raises(TransportError):
            coordinator.metrics_port


class TestClusterObsInertness:
    def test_tracing_and_slo_do_not_change_the_run(self, tmp_path):
        """Full observability on vs off: identical planning artifacts."""

        def artifacts(base):
            cluster = ShardClusterConfig(
                base=base, num_shards=2, expect_clients=4
            )
            result, fleet = run_cluster(
                cluster, LoadGenConfig(num_clients=4, seed=3)
            )
            telemetry = [
                [r.as_dict() for r in shard.metrics.telemetry.records]
                for shard in result.shards
            ]
            clients = sorted(
                (c.name, c.seat, c.frames, c.end_reason, c.redirects)
                for c in fleet.clients
            )
            return telemetry, clients

        plain = artifacts(lockstep_base(seed=3))
        observed = artifacts(
            replace(lockstep_base(seed=3), obs=_obs(tmp_path))
        )
        assert observed == plain

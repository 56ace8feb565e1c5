"""Scale benchmark: users sustained within deadline vs shard count.

For each shard count the bench runs a full paced cluster over
loopback — the coordinator's front door, N shard slot loops, and one
redirect-following client fleet sized to fill every seat — and
records the cluster-wide slot-deadline hit rate.  The headline
number is the largest fleet sustained at the target hit rate (99% by
default) across the swept shard counts: the scaling answer to the
paper's "how many users can one edge carry" question when the edge
is allowed to shard.  Results append to ``BENCH_scale.json`` via
:func:`repro.perf.bench.persist_run`.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.serve.config import serve_setup1
from repro.serve.loadgen import FleetReport, LoadGenConfig
from repro.serve.mux import run_mux_fleet
from repro.shard.config import ShardClusterConfig
from repro.shard.coordinator import ClusterResult, ShardCoordinator

BENCH_SCALE_FILE = "BENCH_scale.json"


async def run_cluster_and_fleet(
    cluster: ShardClusterConfig, fleet_config: LoadGenConfig
) -> Tuple[ClusterResult, FleetReport]:
    """Run a coordinator cluster and its fleet in-process.

    Starts the cluster, points the fleet at the coordinator's front
    door (clients follow redirects to their shards), and returns both
    end-of-run views.  Every client gets its own socket, so a shard
    kill or crash costs exactly the phones it hits.
    """
    coordinator = ShardCoordinator(cluster)
    await coordinator.start()
    run_task = asyncio.ensure_future(coordinator.run())
    try:
        fleet = await run_mux_fleet(
            replace(fleet_config, host=cluster.base.host, port=coordinator.port),
            fleet_config.num_clients,
        )
        result = await run_task
    finally:
        if not run_task.done():
            run_task.cancel()
            await asyncio.gather(run_task, return_exceptions=True)
    return result, fleet


def bench_scale(
    shard_counts: Sequence[int] = (1, 2),
    users_per_shard: int = 2,
    slots: int = 80,
    seed: int = 0,
    deadline_target: float = 0.99,
) -> Dict[str, object]:
    """Measure cluster deadline behaviour across shard counts.

    Each shard count gets one paced loopback run of ``slots``
    transmission slots per shard with a full house —
    ``shards * users_per_shard`` clients, so join-time rebalancing
    fills every shard — and zero think-time.  ``users_sustained`` is
    the largest fleet whose cluster-wide deadline hit rate meets
    ``deadline_target`` with nobody rejected.
    """
    if slots < 3:
        raise ConfigurationError(f"slots must be >= 3, got {slots}")
    if users_per_shard < 1:
        raise ConfigurationError(
            f"users_per_shard must be >= 1, got {users_per_shard}"
        )
    if not shard_counts:
        raise ConfigurationError("need at least one shard count")
    if not 0 < deadline_target <= 1:
        raise ConfigurationError(
            f"deadline_target must be in (0, 1], got {deadline_target}"
        )
    results: List[Dict[str, float]] = []
    users_sustained = 0
    for num_shards in sorted(set(int(n) for n in shard_counts)):
        if num_shards < 1:
            raise ConfigurationError(
                f"shard counts must be >= 1, got {num_shards}"
            )
        total_users = num_shards * users_per_shard
        base = replace(
            serve_setup1(
                max_users=users_per_shard,
                duration_slots=slots + 1,
                seed=seed,
            ),
            exact_stage_latency=True,
        )
        cluster = ShardClusterConfig(
            base=base, num_shards=num_shards, expect_clients=total_users
        )
        fleet_config = LoadGenConfig(num_clients=total_users, seed=seed)
        result, fleet = asyncio.run(
            run_cluster_and_fleet(cluster, fleet_config)
        )
        hit_rate = result.deadline_hit_rate
        if hit_rate >= deadline_target and not fleet.rejected:
            users_sustained = max(users_sustained, total_users)
        results.append(
            {
                "shards": float(num_shards),
                "users": float(total_users),
                "slots": float(result.total_slots),
                "deadline_hit_rate": hit_rate,
                "missed_reports": float(result.missed_reports),
                "migrations": float(result.migrations),
                "redirects": float(sum(c.redirects for c in fleet.clients)),
            }
        )
    return {
        "kind": "scale",
        "slots": int(slots),
        "users_per_shard": int(users_per_shard),
        "deadline_target": float(deadline_target),
        "users_sustained": int(users_sustained),
        "clusters": results,
    }

"""repro.shard — multi-shard serving with live session migration.

One :class:`~repro.serve.server.VrServeServer` answers "does the
planner hold up behind real sockets"; this package answers "does it
scale past one slot loop".  A :class:`~repro.shard.coordinator.
ShardCoordinator` fronts ``num_shards`` independent slot-loop shards:
it owns the cluster's listening endpoint, routes clients by a seeded
stable hash with an override table
(:class:`~repro.shard.router.SessionRouter`), rebalances on join, and
migrates live sessions between shards without losing QoE state — the
seat is captured into a versioned handoff blob
(:mod:`~repro.shard.handoff`), installed parked on the target, and
claimed by the client through the ordinary resume path.  Migrations
run at each shard's deterministic slot-hook point, so a scripted
``shard_kill`` yields the same timeline — and zero lost reports —
every run.  :class:`~repro.shard.supervisor.ShardSupervisor` adds
restart-with-backoff on top, and :func:`~repro.shard.coordinator.
run_cluster_and_fleet` runs a cluster and its client fleet in-process.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.shard.config": ("ShardClusterConfig", "derive_trace_path"),
        "repro.shard.coordinator": (
            "REDIRECT_ASSIGNED", "REDIRECT_REBALANCE", "REDIRECT_SHARD_KILL",
            "ClusterResult", "ShardCoordinator", "run_cluster_and_fleet",
        ),
        "repro.shard.handoff": (
            "HANDOFF_SCHEMA_KIND", "HANDOFF_SCHEMA_VERSION",
            "capture_seat", "install_seat",
        ),
        "repro.shard.router": ("SessionRouter",),
        "repro.shard.supervisor": ("RestartPolicy", "ShardSupervisor"),
    },
)

__all__ = [
    "ClusterResult",
    "HANDOFF_SCHEMA_KIND",
    "HANDOFF_SCHEMA_VERSION",
    "REDIRECT_ASSIGNED",
    "REDIRECT_REBALANCE",
    "REDIRECT_SHARD_KILL",
    "RestartPolicy",
    "SessionRouter",
    "ShardClusterConfig",
    "ShardCoordinator",
    "ShardSupervisor",
    "capture_seat",
    "derive_trace_path",
    "install_seat",
    "run_cluster_and_fleet",
]

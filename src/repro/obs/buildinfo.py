"""Self-identifying scrape output: the ``repro_build_info`` gauge.

Prometheus convention for build metadata is a constant ``1`` gauge
whose labels carry the identity — joinable against any other series
and free at scrape time.  Every registry in the system (each serve
shard, the cluster coordinator, the bench harness) registers one so a
saved exposition or bench JSON says exactly which code and config
produced it.
"""

from __future__ import annotations

import hashlib
import platform

from repro import __version__
from repro.obs.registry import Gauge, MetricsRegistry

#: Family name of the build-identity gauge.
BUILD_INFO_METRIC = "repro_build_info"

#: Label names, in declaration order.
BUILD_INFO_LABELS = ("version", "python", "config_hash", "shard")


def config_fingerprint(config: object) -> str:
    """A short stable hash of a config's ``repr`` (frozen dataclasses).

    Twelve hex characters are plenty to tell two configs apart in a
    dashboard while keeping label cardinality tiny.
    """
    digest = hashlib.sha256(repr(config).encode("utf-8")).hexdigest()
    return digest[:12]


def register_build_info(
    registry: MetricsRegistry,
    *,
    shard: int = -1,
    config_hash: str = "",
) -> Gauge:
    """Register (idempotently) the build-info gauge and set it to 1.

    ``shard`` is the shard index for sharded servers, ``-1`` for
    standalone processes and the coordinator (mirroring
    ``ServeConfig.shard_index``).
    """
    family = registry.gauge_family(
        BUILD_INFO_METRIC,
        "Constant 1; labels identify the build, runtime, and config.",
        BUILD_INFO_LABELS,
    )
    gauge = family.gauge_child(
        version=__version__,
        python=platform.python_version(),
        config_hash=config_hash,
        shard=str(shard),
    )
    gauge.set(1.0)
    return gauge

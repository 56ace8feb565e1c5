"""Observability overhead benchmark: the cost of watching the loop.

Instrumentation that perturbs the system it measures is worse than no
instrumentation, so the acceptance bar for :mod:`repro.obs` is a hard
number: at the default trace sampling, full observability must add
less than :data:`MAX_OVERHEAD_PCT` to the slot pipeline.  The bench
runs the same seeded lockstep loopback serve twice — observability
disabled, then enabled — and compares the *mean* slot-pipeline
latency (exact under the bounded histogram, unlike quantiles, so the
comparison is not blurred by bucket interpolation).  Results append
to ``BENCH_obs.json`` via :func:`repro.perf.bench.persist_run`.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.obs.config import DEFAULT_SAMPLE_EVERY, ObsConfig
from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig
from repro.serve.mux import run_serve_and_mux_fleet

BENCH_OBS_FILE = "BENCH_obs.json"

#: Acceptance ceiling for the slot-pipeline overhead (percent).
MAX_OVERHEAD_PCT = 5.0


def _run_arm(
    users: int, slots: int, seed: int, obs_config: ObsConfig
) -> Dict[str, float]:
    """One lockstep loopback serve; mean/p50 slot latency in ms."""
    serve_config = replace(
        serve_setup1(
            max_users=users,
            duration_slots=slots + 1,
            seed=seed,
            expect_clients=users,
            lockstep=True,
        ),
        obs=obs_config,
    )
    fleet_config = LoadGenConfig(num_clients=users, seed=seed)
    result, _ = asyncio.run(
        run_serve_and_mux_fleet(serve_config, fleet_config, users)
    )
    slot_hist = result.metrics.stage_latency["slot"]
    return {
        "slots": float(result.metrics.slots),
        "mean_slot_ms": slot_hist.mean() * 1e3,
        "p50_slot_ms": slot_hist.quantile(0.50) * 1e3,
        "p99_slot_ms": slot_hist.quantile(0.99) * 1e3,
    }


def bench_obs(
    users: int = 8,
    slots: int = 120,
    seed: int = 0,
    repeats: int = 3,
    sample_every: int = DEFAULT_SAMPLE_EVERY,
) -> Dict[str, object]:
    """Measure the slot-pipeline cost of full observability.

    Each arm (obs off, obs on at ``sample_every``) runs ``repeats``
    full lockstep loopback serves; the reported latency per arm is
    the best (minimum-mean) run, the standard noise-robust treatment
    benchmarks in this repo use.
    """
    if users < 1:
        raise ConfigurationError(f"users must be >= 1, got {users}")
    if slots < 3:
        raise ConfigurationError(f"slots must be >= 3, got {slots}")
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    off_config = ObsConfig(enabled=False)
    on_config = ObsConfig(enabled=True, sample_every=sample_every)
    off_runs: List[Dict[str, float]] = []
    on_runs: List[Dict[str, float]] = []
    for _ in range(repeats):
        off_runs.append(_run_arm(users, slots, seed, off_config))
        on_runs.append(_run_arm(users, slots, seed, on_config))
    best_off = min(off_runs, key=lambda run: run["mean_slot_ms"])
    best_on = min(on_runs, key=lambda run: run["mean_slot_ms"])
    overhead_pct = (
        (best_on["mean_slot_ms"] - best_off["mean_slot_ms"])
        / best_off["mean_slot_ms"]
        * 100.0
        if best_off["mean_slot_ms"] > 0
        else 0.0
    )
    return {
        "kind": "obs",
        "users": int(users),
        "slots": int(slots),
        "repeats": int(repeats),
        "sample_every": int(sample_every),
        "off_mean_slot_ms": best_off["mean_slot_ms"],
        "on_mean_slot_ms": best_on["mean_slot_ms"],
        "off_p50_slot_ms": best_off["p50_slot_ms"],
        "on_p50_slot_ms": best_on["p50_slot_ms"],
        "off_p99_slot_ms": best_off["p99_slot_ms"],
        "on_p99_slot_ms": best_on["p99_slot_ms"],
        "overhead_pct": overhead_pct,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "within_budget": bool(overhead_pct < MAX_OVERHEAD_PCT),
    }

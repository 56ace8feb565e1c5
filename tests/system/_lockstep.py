"""Serve an experiment configuration in lockstep and run it in-process.

A full house of fleet clients plays every seat of a lockstep server,
and :meth:`~repro.system.experiment.SystemExperiment.run_repeat` runs
the same configuration with the heap allocator.  The two share the
data plane, the edge-server build and the phone step, so every
per-user figure must agree exactly.
"""

import asyncio
from dataclasses import replace

from repro.core.allocation import DensityValueGreedyAllocator
from repro.serve.config import ServeConfig
from repro.serve.loadgen import LoadGenConfig
from repro.serve.mux import run_serve_and_mux_fleet
from repro.system.experiment import ExperimentConfig, SystemExperiment
from repro.system.telemetry import Telemetry


def serve_lockstep(config: ExperimentConfig):
    """Serve ``config`` to one fleet client per seat, in lockstep."""
    serve_config = ServeConfig(
        experiment=config, expect_clients=config.num_users, lockstep=True
    )
    fleet_config = LoadGenConfig(num_clients=config.num_users, seed=config.seed)
    return asyncio.run(run_serve_and_mux_fleet(serve_config, fleet_config))


def assert_served_equals_experiment(config, result, fleet):
    """The served run's ledgers, fps and telemetry equal the experiment's."""
    telemetry = Telemetry()
    reference = SystemExperiment(config).run_repeat(
        DensityValueGreedyAllocator(), 0, telemetry=telemetry
    )
    clients = {client.seat: client for client in fleet.admitted}
    assert sorted(clients) == list(range(config.num_users))
    for user, summary in enumerate(reference.users):
        assert clients[user].server_summary == {
            "qoe": summary.qoe,
            "quality": summary.quality,
            "delay": summary.delay,
            "variance": summary.variance,
            "mean_level": summary.mean_level,
        }
        assert clients[user].fps == summary.fps
        assert clients[user].mean_viewed_quality == summary.quality
    assert result.metrics.per_user_quality() == {
        user: summary.quality for user, summary in enumerate(reference.users)
    }
    # The wire reports only the indicator (displayed and covered); the
    # serve fold writes it into both flags, the experiment writes the
    # phone's own.  Every other field is equal.
    served = result.metrics.telemetry.records
    expected = telemetry.records
    assert len(served) == len(expected) == (
        (config.duration_slots - 1) * config.num_users
    )
    for got, want in zip(served, expected):
        assert got.displayed == (want.displayed and want.covered)
        assert replace(got, displayed=want.displayed) == want

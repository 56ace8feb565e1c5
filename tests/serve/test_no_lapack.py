"""Serving calls no LAPACK routine.

The delay model refits with an elementwise closed-form solve, so
neither a paced loopback serve nor a ``SystemExperiment`` run may
reach ``np.polyfit``, ``np.linalg.lstsq`` or ``np.linalg.solve``: each
is patched to raise here, and both runs must still complete with
fitted delay models.
"""

import asyncio

import numpy as np
import pytest

from repro.core.allocation import DensityValueGreedyAllocator
from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig
from repro.serve.mux import run_mux_fleet
from repro.serve.server import VrServeServer
from repro.system.experiment import SystemExperiment, setup1_config


@pytest.fixture
def no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the serving path called a LAPACK solver")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)


def test_paced_loopback_serve(no_lapack):
    fills = []

    async def serve():
        server = VrServeServer(
            serve_setup1(max_users=4, duration_slots=61, seed=0, expect_clients=4)
        )
        model = server.edge._delay_model
        delays = model.delays

        def priced(sizes):
            fills.append(int(model.num_samples.max()))
            return delays(sizes)

        model.delays = priced
        await server.start()
        task = asyncio.ensure_future(server.run())
        try:
            fleet = await run_mux_fleet(
                LoadGenConfig(num_clients=4, seed=0, port=server.port), 4
            )
            return server, await task, fleet
        finally:
            if not task.done():
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)

    server, result, fleet = asyncio.run(serve())
    assert result.slots == 60
    assert {c.end_reason for c in fleet.clients} == {"complete"}
    # Seats were refit from full enough windows (the seats are reset
    # when their clients leave, so look during the run).
    assert max(fills) >= server.edge._delay_model.min_samples


def test_system_experiment_run(no_lapack):
    experiment = SystemExperiment(setup1_config(duration_slots=60, seed=0))
    servers = []
    build = experiment.edge_server

    def edge_server(allocator, data_plane):
        servers.append(build(allocator, data_plane))
        return servers[-1]

    experiment.edge_server = edge_server
    result = experiment.run_repeat(DensityValueGreedyAllocator())
    assert result.num_users == 8
    model = servers[0]._delay_model
    assert (model.num_samples >= model.min_samples).all()

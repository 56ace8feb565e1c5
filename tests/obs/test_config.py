"""ObsConfig validation and the Obs runtime bundle."""

import asyncio
import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs import Obs, ObsConfig
from repro.obs.flight import FlightRecorder, NullFlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NullTracer, Tracer


class TestObsConfig:
    def test_defaults_are_valid(self):
        config = ObsConfig()
        assert config.enabled is True
        assert config.http_port is None
        assert config.trace_path is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_every": 0},
            {"flight_capacity": 0},
            {"flight_max_dumps": 0},
            {"http_port": -1},
            {"http_port": 70_000},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ObsConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_every": 2.5},
            {"sample_every": True},
            {"flight_capacity": 2.5},
            {"flight_capacity": "120"},
            {"flight_max_dumps": 1.0},
            {"flight_max_dumps": False},
            {"http_port": 8080.5},
            {"http_port": True},
        ],
    )
    def test_non_int_counts_rejected(self, kwargs):
        # A float or bool count would pass the range checks and fail
        # later (or never) inside the tracer and flight recorder.
        with pytest.raises(ConfigurationError, match="must be an int"):
            ObsConfig(**kwargs)


class TestObsBundle:
    def test_from_config_enabled_builds_real_pieces(self, tmp_path):
        obs = Obs.from_config(
            ObsConfig(
                enabled=True,
                trace_path=str(tmp_path / "t.jsonl"),
                sample_every=2,
                flight_capacity=10,
                flight_max_dumps=3,
            )
        )
        assert obs.active is True
        assert isinstance(obs.tracer, Tracer)
        assert obs.tracer.sample_every == 2
        assert isinstance(obs.flight, FlightRecorder)
        assert obs.flight.capacity == 10
        assert obs.flight.max_dumps == 3
        obs.close()

    def test_from_config_disabled_uses_null_pieces(self):
        obs = Obs.from_config(ObsConfig(enabled=False))
        assert obs.active is False
        assert isinstance(obs.tracer, NullTracer)
        assert isinstance(obs.flight, NullFlightRecorder)
        # The registry still works — metrics are never gated.
        obs.registry.counter("still_works_total", "h").inc()
        obs.close()

    def test_shared_registry_is_reused(self):
        registry = MetricsRegistry()
        obs = Obs.from_config(ObsConfig(), registry=registry)
        assert obs.registry is registry
        assert Obs.disabled(registry).registry is registry

    def test_aclose_closes_an_enabled_trace_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs = Obs.from_config(ObsConfig(trace_path=str(path), sample_every=1))

        async def run():
            obs.tracer.emit(obs.tracer.slot(0, 0.0).finish(0.001))
            await obs.aclose()

        asyncio.run(run())
        assert obs.tracer._handle is None
        assert len(path.read_text().splitlines()) == 2  # header + span

    def test_disabled_aclose_starts_no_thread(self):
        obs = Obs.from_config(ObsConfig(enabled=False))

        async def run():
            before = threading.active_count()
            await obs.aclose()
            return before, threading.active_count()

        before, after = asyncio.run(run())
        assert after == before

    def test_disabled_classmethod(self):
        obs = Obs.disabled()
        assert obs.active is False
        obs.close()

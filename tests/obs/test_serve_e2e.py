"""End-to-end observability on the live serving path.

The ISSUE's acceptance scenarios: a provoked deadline miss produces a
flight dump containing the offending slot's full span tree, and a live
loopback run serves a valid Prometheus ``/metrics`` page plus
``/healthz`` while slots are executing.
"""

import asyncio
import json
from dataclasses import replace

from repro.obs import ObsConfig
from repro.obs.flight import TRIGGER_DEADLINE_MISS
from repro.obs.promtext import validate_exposition
from repro.obs.spans import read_span_stream
from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig
from repro.serve.mux import run_mux_fleet, run_serve_and_mux_fleet
from repro.serve.server import VrServeServer


class TestDeadlineMissFlightDump:
    def test_missed_deadline_dumps_the_offending_slot_span_tree(
        self, tmp_path
    ):
        flight_dir = tmp_path / "flight"
        # A 1 microsecond deadline: every slot's pipeline misses it.
        serve_config = replace(
            serve_setup1(
                max_users=2,
                duration_slots=6,
                seed=0,
                expect_clients=2,
                lockstep=True,
                slot_s=1e-6,
            ),
            obs=ObsConfig(enabled=True, flight_dir=str(flight_dir)),
        )
        result, _ = asyncio.run(
            run_serve_and_mux_fleet(
                serve_config, LoadGenConfig(num_clients=2, seed=0)
            )
        )
        assert result.metrics.deadline_hit_rate == 0.0
        dumps = sorted(flight_dir.glob("flight_*_deadline_miss.jsonl"))
        assert dumps, "deadline misses produced no flight dump"
        with open(dumps[0], "r", encoding="utf-8") as handle:
            header, spans = read_span_stream(handle)
        assert header["kind"] == "repro.obs.flight"
        assert header["trigger"] == TRIGGER_DEADLINE_MISS
        offending_slot = header["slot"]
        offenders = [
            s for s in spans if s.attrs.get("slot") == offending_slot
        ]
        assert offenders, "dump does not contain the offending slot"
        span = offenders[0]
        # The full span tree: the slot root, its pipeline stages, and
        # the per-user allocation grandchildren under allocate.
        assert span.attrs["deadline_hit"] is False
        stage_names = [c.name for c in span.children]
        assert stage_names == ["fold", "allocate", "encode", "send"]
        allocate = span.find("allocate")[0]
        seats = [u.attrs["seat"] for u in allocate.find("user")]
        assert seats, "allocate stage has no per-user spans"
        assert set(seats) <= {0, 1}


class TestLiveMetricsEndpoint:
    def test_metrics_and_healthz_valid_mid_run(self):
        async def scenario():
            serve_config = replace(
                serve_setup1(
                    max_users=2,
                    duration_slots=41,
                    seed=0,
                    expect_clients=2,
                    lockstep=True,
                ),
                obs=ObsConfig(enabled=True, http_port=0),
            )
            server = VrServeServer(serve_config)
            await server.start()
            metrics_port = server.metrics_port
            server_task = asyncio.ensure_future(server.run())
            fleet_task = asyncio.ensure_future(
                run_mux_fleet(
                    LoadGenConfig(num_clients=2, seed=0, port=server.port)
                )
            )
            # Scrape while the slot loop is live (event-driven, no
            # sleep polling: the loop signals each completed slot).
            await server.slot_loop.wait_slots(5)
            metrics_body = await _http_get(metrics_port, "/metrics")
            health_body = await _http_get(metrics_port, "/healthz")
            await fleet_task
            result = await server_task
            return result, metrics_body, health_body

        result, metrics_body, health_body = asyncio.run(scenario())
        summary = validate_exposition(metrics_body)
        assert "repro_serve_slots_total" in summary.families
        assert "repro_serve_stage_latency_seconds" in summary.families
        assert "repro_serve_active_sessions" in summary.families
        health = json.loads(health_body)
        assert health["status"] == "ok"
        assert health["sessions"] == 2
        assert health["slots_run"] >= 5
        assert result.slots == 40


async def _http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return raw.partition(b"\r\n\r\n")[2].decode("utf-8")

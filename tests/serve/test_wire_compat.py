"""The wire speaks one codec from the first byte: legacy joins are refused.

Every connection opens with a binary frame whose first byte is the
header magic.  A client from before that change opens with a u32
length prefix and a JSON object instead; the server and the shard
front door must close such a connection at once (not after the join
timeout), admit nothing for it, and keep serving the binary clients
running alongside.
"""

import asyncio
import json
import struct
from dataclasses import replace

from repro.serve.config import PROTOCOL_VERSION, serve_setup1
from repro.serve.loadgen import LoadGenConfig
from repro.serve.mux import run_mux_fleet
from repro.serve.server import VrServeServer
from repro.shard.config import ShardClusterConfig
from repro.shard.coordinator import ShardCoordinator

#: A join as the retired length-prefixed JSON wire framed it.
_LEGACY_BODY = json.dumps(
    {
        "kind": "join",
        "client": "legacy",
        "version": PROTOCOL_VERSION,
        "token": "",
        "codec": 1,
    },
    separators=(",", ":"),
).encode("utf-8")
LEGACY_JOIN = struct.pack("!I", len(_LEGACY_BODY)) + _LEGACY_BODY

#: Long enough that a connection left to time out fails the test.
JOIN_TIMEOUT_S = 30.0

#: "Promptly": the refusal must land well inside the join timeout.
CLOSE_WITHIN_S = 5.0


def _lockstep_base(max_users):
    return replace(
        serve_setup1(
            max_users=max_users, duration_slots=11, seed=0,
            expect_clients=1, lockstep=True,
        ),
        join_timeout_s=JOIN_TIMEOUT_S,
    )


async def _legacy_join(port):
    """Send a legacy join; return what came back before the close."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(LEGACY_JOIN)
    await writer.drain()
    try:
        return await asyncio.wait_for(reader.read(), CLOSE_WITHIN_S)
    finally:
        writer.close()
        await writer.wait_closed()


async def _legacy_beside_fleet(endpoint, run):
    """Run one binary client and one legacy join against ``endpoint``."""
    run_task = asyncio.ensure_future(run)
    fleet_task = asyncio.ensure_future(
        run_mux_fleet(LoadGenConfig(port=endpoint.port, num_clients=1, seed=0))
    )
    try:
        answer = await _legacy_join(endpoint.port)
        fleet = await fleet_task
        result = await run_task
    finally:
        for task in (fleet_task, run_task):
            if not task.done():
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
    return answer, fleet, result


class TestLegacyJsonJoin:
    def test_server_closes_legacy_join_and_keeps_serving(self):
        async def scenario():
            server = VrServeServer(_lockstep_base(max_users=2))
            await server.start()
            return await _legacy_beside_fleet(server, server.run())

        answer, fleet, result = asyncio.run(scenario())
        assert answer == b""
        assert result.metrics.joins == 1
        assert result.metrics.rejects == {}
        assert [c.end_reason for c in fleet.clients] == ["complete"]
        assert result.slots == 10

    def test_front_door_closes_legacy_join_and_keeps_routing(self):
        async def scenario():
            coordinator = ShardCoordinator(
                ShardClusterConfig(
                    base=_lockstep_base(max_users=2),
                    num_shards=2,
                    expect_clients=1,
                )
            )
            await coordinator.start()
            return await _legacy_beside_fleet(coordinator, coordinator.run())

        answer, fleet, result = asyncio.run(scenario())
        assert answer == b""
        assert sum(r.metrics.joins for r in result.shards) == 1
        assert [c.end_reason for c in fleet.clients] == ["complete"]
        assert [c.redirects for c in fleet.clients] == [1]

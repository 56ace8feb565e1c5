"""The wire speaks one framing from the first byte: other joins are refused.

Every connection opens with a channel-tagged binary JOIN.  A client
from before the binary codec opens with a u32 length prefix and a JSON
object instead, and a binary JOIN may come untagged (channel -1); the
server and the shard front door must close either connection at once
(not after the join timeout), admit nothing for it, and keep serving
the tagged clients running alongside.  Once a connection has joined,
an untagged frame on it is dropped and counted, never routed.  An
opening frame that decodes to no unit at all is a transport error.
"""

import asyncio
import json
import struct
from dataclasses import replace

import pytest

from repro.errors import TransportError
from repro.serve.config import PROTOCOL_VERSION, serve_setup1
from repro.serve.loadgen import LoadGenConfig
from repro.serve.mux import run_mux_fleet
from repro.serve.protocol import Bye, JoinRequest, Ready
from repro.serve.protocol2 import (
    CODEC_BINARY,
    HEADER,
    HEADER_MAGIC,
    TYPE_REPORT_BATCH,
    BinaryChannelCodec,
    read_units,
    send_frame,
)
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

#: A well-formed binary join that carries no channel id.
UNTAGGED_JOIN = BinaryChannelCodec().encode(
    JoinRequest(client="untagged", version=PROTOCOL_VERSION)
)

#: A report batch with zero entries: framed, but it carries no unit.
EMPTY_BATCH = (
    HEADER.pack(HEADER_MAGIC, CODEC_BINARY, TYPE_REPORT_BATCH, 0, 1) + b"\x00"
)

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


async def _refused_join(port, opening):
    """Send ``opening``; return what came back before the close."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(opening)
    await writer.drain()
    try:
        return await asyncio.wait_for(reader.read(), CLOSE_WITHIN_S)
    finally:
        writer.close()
        await writer.wait_closed()


async def _refused_beside_fleet(endpoint, run, opening):
    """Run one tagged client and one ``opening`` against ``endpoint``."""
    run_task = asyncio.ensure_future(run)
    fleet_task = asyncio.ensure_future(
        run_mux_fleet(LoadGenConfig(port=endpoint.port, num_clients=1, seed=0))
    )
    try:
        answer = await _refused_join(endpoint.port, opening)
        fleet = await fleet_task
        result = await run_task
    finally:
        for task in (fleet_task, run_task):
            if not task.done():
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
    return answer, fleet, result


def _serve_beside(opening):
    async def scenario():
        server = VrServeServer(_lockstep_base(max_users=2))
        await server.start()
        return await _refused_beside_fleet(server, server.run(), opening)

    answer, fleet, result = asyncio.run(scenario())
    assert answer == b""
    assert result.metrics.joins == 1
    assert result.metrics.rejects == {}
    assert [c.end_reason for c in fleet.clients] == ["complete"]
    assert result.slots == 10


def _route_beside(opening):
    async def scenario():
        coordinator = ShardCoordinator(
            ShardClusterConfig(
                base=_lockstep_base(max_users=2),
                num_shards=2,
                expect_clients=1,
            )
        )
        await coordinator.start()
        return await _refused_beside_fleet(
            coordinator, coordinator.run(), opening
        )

    answer, fleet, result = asyncio.run(scenario())
    assert answer == b""
    assert sum(r.metrics.joins for r in result.shards) == 1
    assert [c.end_reason for c in fleet.clients] == ["complete"]
    assert [c.redirects for c in fleet.clients] == [1]


class TestLegacyJsonJoin:
    def test_server_closes_legacy_join_and_keeps_serving(self):
        _serve_beside(LEGACY_JOIN)

    def test_front_door_closes_legacy_join_and_keeps_routing(self):
        _route_beside(LEGACY_JOIN)


class TestUntaggedJoin:
    def test_server_closes_untagged_join_and_keeps_serving(self):
        _serve_beside(UNTAGGED_JOIN)

    def test_front_door_closes_untagged_join_and_keeps_routing(self):
        _route_beside(UNTAGGED_JOIN)


class TestUntaggedAfterJoin:
    def test_untagged_frames_are_dropped_and_counted(self):
        async def scenario():
            server = VrServeServer(_lockstep_base(max_users=2))
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            codec = BinaryChannelCodec()
            join = JoinRequest(client="tagged", version=PROTOCOL_VERSION)
            pose = (4.0, 4.0, 1.6, 0.0, 0.0, 0.0)
            try:
                await send_frame(writer, codec, join, channel=0)
                (welcome,) = await read_units(reader, codec)
                seat = welcome.message.seat
                for untagged in (
                    Ready(pose=pose),
                    JoinRequest(client="second", version=PROTOCOL_VERSION),
                    Bye(reason="untagged"),
                ):
                    await send_frame(writer, codec, untagged)
                # Frames on one connection are handled in order, so the
                # tagged Ready lands after all three untagged ones.
                await send_frame(writer, codec, Ready(pose=pose), channel=seat)
                await server.wait_for_ready(1, timeout_s=CLOSE_WITHIN_S)
                (session,) = server.registry.active()
                return (
                    server.metrics.corrupt_frames,
                    server.metrics.joins,
                    session.corrupt_frames,
                )
            finally:
                writer.close()
                await writer.wait_closed()
                await server.aclose()

        corrupt, joins, seat_corrupt = asyncio.run(scenario())
        assert corrupt == 3
        assert joins == 1
        # Counted like a frame for a seat the connection does not
        # carry: globally, not against the joined session.
        assert seat_corrupt == 0


class TestEmptyOpening:
    def test_empty_batch_opening_is_a_transport_error(self):
        # Decoded, it is no unit at all: the handler must refuse it as
        # a transport error, not fail on the missing first unit.
        async def scenario():
            server = VrServeServer(_lockstep_base(max_users=2))
            reader = asyncio.StreamReader()
            reader.feed_data(EMPTY_BATCH)
            reader.feed_eof()
            with pytest.raises(TransportError, match="no join frame"):
                await server._admit_first(reader, None, BinaryChannelCodec())
            return server.metrics.joins

        assert asyncio.run(scenario()) == 0

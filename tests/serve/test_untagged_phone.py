"""The server's untagged path: one phone, one socket, no channel tags.

Every fleet joins with channel-tagged frames, so a lone external phone
speaking untagged frames (channel -1) reaches server code no fleet run
drives: ``_admit`` with ``channel < 0`` and the slot loop's
single-frame plan send.  The test-only phone below drives one session
through a lockstep run over that path — untagged JOIN, READY, one
report per plan through the same display pipeline the fleet uses, BYE
on END — and its ledger must equal the fleet's for the same seed and
seat.
"""

import asyncio

from repro.serve.config import PROTOCOL_VERSION, serve_setup1
from repro.serve.loadgen import (
    LoadGenConfig,
    _ClientState,
    _evaluate_plan,
    _final_report,
)
from repro.serve.mux import run_serve_and_mux_fleet
from repro.serve.protocol import (
    Bye,
    EndOfRun,
    JoinRequest,
    Ready,
    TilePlan,
    Welcome,
    pose_to_wire,
)
from repro.serve.protocol2 import BinaryChannelCodec, read_units, send_frame
from repro.serve.server import VrServeServer

SEED = 5
SLOTS = 31


def _serve_config():
    return serve_setup1(
        max_users=1, duration_slots=SLOTS, seed=SEED, expect_clients=1,
        lockstep=True,
    )


async def _untagged_phone(port, config):
    """One phone session in untagged frames; returns its report."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    codec = BinaryChannelCodec()
    try:
        await send_frame(
            writer, codec,
            JoinRequest(client="phone", version=PROTOCOL_VERSION),
        )
        (unit,) = await read_units(reader, codec)
        assert unit.channel == -1
        assert isinstance(unit.message, Welcome)
        state = _ClientState(config, unit.message)
        await send_frame(
            writer, codec,
            Ready(pose=pose_to_wire(state.trace[0].as_vector())),
        )
        while True:
            units = await read_units(reader, codec)
            assert units is not None, "server closed before END"
            for unit in units:
                # Untagged single frames, never a channel batch.
                assert unit.channel == -1
                message = unit.message
                if isinstance(message, EndOfRun):
                    state.end_reason = message.reason
                    state.server_summary = dict(message.summary)
                    await send_frame(writer, codec, Bye(reason="complete"))
                    return _final_report("phone", state)
                assert isinstance(message, TilePlan)
                await send_frame(
                    writer, codec,
                    _evaluate_plan(
                        message, state.trace, state.coverage, state.phone
                    ),
                )
    finally:
        writer.close()
        await writer.wait_closed()


async def _serve_untagged_phone():
    server = VrServeServer(_serve_config())
    await server.start()
    server_task = asyncio.ensure_future(server.run())
    try:
        phone = await _untagged_phone(server.port, LoadGenConfig(seed=SEED))
        result = await server_task
    finally:
        if not server_task.done():
            server_task.cancel()
            await asyncio.gather(server_task, return_exceptions=True)
    return result, phone


def _ledger(client):
    return (
        client.seat,
        client.frames,
        client.displayed,
        client.mean_viewed_quality,
        client.mean_delay_slots,
        client.fps,
        client.end_reason,
        client.server_summary,
    )


class TestUntaggedPhone:
    def test_untagged_session_matches_the_fleet(self):
        phone_result, phone = asyncio.run(_serve_untagged_phone())
        fleet_result, fleet = asyncio.run(
            run_serve_and_mux_fleet(
                _serve_config(), LoadGenConfig(num_clients=1, seed=SEED)
            )
        )
        (client,) = fleet.clients
        assert phone.end_reason == "complete"
        assert phone.frames == SLOTS - 1
        assert _ledger(phone) == _ledger(client)
        assert (
            phone_result.metrics.telemetry.records
            == fleet_result.metrics.telemetry.records
        )
        assert phone_result.metrics.joins == phone_result.metrics.leaves == 1

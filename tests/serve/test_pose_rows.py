"""Poses cross the serving path as 6-float rows.

A pose enters the edge server from outside in three ways: a phone's
``Ready`` frame, the pose upload in each slot report, and a handoff
blob's ``pose_window``.  Each is normalised once on the way in, as
``Pose.from_vector(v).as_vector()`` does (pitch clamp, then yaw and
roll wrap); an experiment upload is the trace pose's own row and lands
as given.  From there to the plan frame no ``Pose`` is built: counting
``Pose.__post_init__`` calls (not timing them) pins that design.
"""

import asyncio
from dataclasses import replace

import numpy as np

from repro.core.allocation import DensityValueGreedyAllocator
from repro.prediction.pose import Pose, pose_row
from repro.serve.config import PROTOCOL_VERSION, serve_setup1
from repro.serve.loadgen import LoadGenConfig, _ClientState, _evaluate_plan
from repro.serve.protocol import (
    Bye,
    EndOfRun,
    JoinRequest,
    Ready,
    TilePlan,
    Welcome,
)
from repro.serve.protocol2 import BinaryChannelCodec, read_units, send_frame
from repro.serve.server import VrServeServer
from repro.system.experiment import DataPlane, SystemExperiment, setup1_config
from repro.traces.motion import MotionTraceGenerator

#: Rows a plain wrap or clamp changes: past +180 yaw, past -180 roll,
#: past +90 pitch, and a yaw whose one wrap lands on exactly 180.0
#: (a second wrap would make it -180.0).
OUTSIDE = (
    (4.0, 4.0, 1.6, 190.0, 0.0, 0.0),
    (4.0, 4.0, 1.6, 10.0, 0.0, -190.0),
    (4.0, 4.0, 1.6, 10.0, 95.0, 0.0),
    (4.0, 4.0, 1.6, -180.0 - 2.0 ** -45, 0.0, 0.0),
)


def _normalised(vector):
    return list(Pose.from_vector(vector).as_vector())


def _recording(server):
    """Record each row as it lands in the edge server's motion window."""
    motion = server._motion
    observe = motion.observe_user
    landed = {}

    def observe_user(user, vector):
        observe(user, vector)
        landed.setdefault(user, []).append(motion.export_user(user)[-1])

    motion.observe_user = observe_user
    return landed


def test_normalisation_changes_every_outside_row():
    # Otherwise the tests below could not tell a normalised row from
    # one stored as given, or from one wrapped twice.
    for vector in OUTSIDE:
        assert _normalised(vector) != list(vector)
    assert _normalised(OUTSIDE[3])[3] == 180.0
    assert Pose.from_vector(_normalised(OUTSIDE[3])).yaw == -180.0


async def _phone(port, config, vector):
    """One phone on its own socket whose Ready and every report carry
    ``vector``; it joins on channel 0, then tags frames with its seat."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    codec = BinaryChannelCodec()
    try:
        await send_frame(
            writer,
            codec,
            JoinRequest(client="phone", version=PROTOCOL_VERSION),
            channel=0,
        )
        (unit,) = await read_units(reader, codec)
        assert isinstance(unit.message, Welcome)
        state = _ClientState(config, unit.message)
        seat = unit.message.seat
        await send_frame(writer, codec, Ready(pose=vector), channel=seat)
        while True:
            units = await read_units(reader, codec)
            assert units is not None, "server closed before END"
            for unit in units:
                if isinstance(unit.message, EndOfRun):
                    await send_frame(
                        writer, codec, Bye(reason="complete"), channel=seat
                    )
                    return unit.message.summary
                assert isinstance(unit.message, TilePlan)
                report = _evaluate_plan(
                    unit.message, state.trace, state.coverage, state.phone
                )
                await send_frame(
                    writer, codec, replace(report, pose=vector), channel=seat
                )
    finally:
        writer.close()
        await writer.wait_closed()


async def _serve_outside_poses():
    seats = len(OUTSIDE)
    server = VrServeServer(
        serve_setup1(
            max_users=seats, duration_slots=6, seed=0, expect_clients=seats,
            lockstep=True,
        )
    )
    landed = _recording(server.edge)
    await server.start()
    server_task = asyncio.ensure_future(server.run())
    try:
        # Joined one by one, so phone i takes seat i.
        phones = []
        for vector in OUTSIDE:
            phones.append(
                asyncio.ensure_future(
                    _phone(server.port, LoadGenConfig(seed=0), vector)
                )
            )
            await server.wait_for_ready(len(phones), timeout_s=10.0)
        await asyncio.gather(*phones)
        result = await server_task
    finally:
        if not server_task.done():
            server_task.cancel()
            await asyncio.gather(server_task, return_exceptions=True)
    return result, landed


def test_ready_and_report_poses_land_normalised():
    result, landed = asyncio.run(_serve_outside_poses())
    assert result.slots == 5
    assert sorted(landed) == list(range(len(OUTSIDE)))
    for seat, vector in enumerate(OUTSIDE):
        # The Ready pose, then one upload per folded report.
        assert len(landed[seat]) >= 3
        assert landed[seat] == [_normalised(vector)] * len(landed[seat])


def test_handoff_pose_window_lands_normalised():
    experiment = SystemExperiment(setup1_config(duration_slots=20, seed=0))
    source = experiment.edge_server(
        DensityValueGreedyAllocator(), DataPlane(experiment.config, 0)
    )
    state = source.export_seat(0)
    state["pose_window"] = [list(vector) for vector in OUTSIDE]
    target = experiment.edge_server(
        DensityValueGreedyAllocator(), DataPlane(experiment.config, 0)
    )
    landed = _recording(target)
    target.import_seat(1, state)
    expected = [_normalised(vector) for vector in OUTSIDE]
    assert landed == {1: expected}
    assert target.export_seat(1)["pose_window"] == expected


def test_run_repeat_uploads_land_as_given(monkeypatch):
    generate = MotionTraceGenerator.generate
    traces = []

    def generate_with_outside_rows(self, num_slots, rng):
        trace = generate(self, num_slots, rng)
        # Every trace pose is a Pose, so its row is already wrapped;
        # these four wrap again if normalised a second time (the last
        # turns 180.0 into -180.0).
        for k, vector in enumerate(OUTSIDE):
            trace[2 + k] = Pose.from_vector(vector)
        traces.append(trace)
        return trace

    monkeypatch.setattr(
        MotionTraceGenerator, "generate", generate_with_outside_rows
    )
    config = replace(setup1_config(duration_slots=12, seed=0), num_users=2)
    experiment = SystemExperiment(config)
    build = experiment.edge_server
    servers = []

    def edge_server(allocator, data_plane):
        server = build(allocator, data_plane)
        servers.append(_recording(server))
        return server

    experiment.edge_server = edge_server
    experiment.run_repeat(DensityValueGreedyAllocator())
    [landed] = servers
    lag = config.pose_upload_latency_slots
    for user, trace in enumerate(traces):
        uploads = [0] + [
            t - lag for t in range(config.duration_slots - 1) if t >= lag
        ]
        assert landed[user] == [list(trace[k].as_vector()) for k in uploads]
        # The wrapped 180.0 was uploaded and kept, not wrapped again.
        assert [row[3] for row in landed[user]].count(180.0) == 1


def test_plan_rows_match_a_pose_built_from_the_prediction():
    """The rows reference: what the planner used to build per seat."""
    config = replace(setup1_config(duration_slots=20, seed=0), num_users=32)
    experiment = SystemExperiment(config)
    server = experiment.edge_server(
        DensityValueGreedyAllocator(), DataPlane(config, 0)
    )
    rng = np.random.default_rng(1)
    # Seat 0's fit lands on yaw 180.0, which the second wrap maps to
    # -180.0; seat 1 has one observation (kept as is), seat 2 none.
    edge = (4.0, 4.0, 1.6, -180.0 - 2.0 ** -45, 0.0, 0.0)
    server.observe_pose(0, edge)
    server.observe_pose(0, edge)
    server.observe_pose(1, edge)
    for seat in range(3, 32):
        for _ in range(int(rng.integers(2, 12))):
            server.observe_pose(seat, pose_row((
                float(rng.uniform(1.0, 7.0)), float(rng.uniform(1.0, 7.0)), 1.6,
                float(rng.uniform(-200.0, 200.0)), float(rng.uniform(-95.0, 95.0)),
                float(rng.uniform(-200.0, 200.0)),
            )))
    counts = server._motion.num_observations.tolist()
    fitted = server._motion.predict().tolist()
    plan = server.plan_slot()
    planned = [user_plan.predicted_pose for user_plan in plan.users]
    assert planned[0][3] == -180.0
    assert planned[1] == edge
    assert planned[2] is None
    for seat in [0] + list(range(3, 32)):
        assert counts[seat] >= 2
        assert planned[seat] == Pose.from_vector(fitted[seat]).as_vector()


def _pose_constructions(monkeypatch):
    calls = [0]
    original = Pose.__post_init__

    def counting(self):
        calls[0] += 1
        original(self)

    monkeypatch.setattr(Pose, "__post_init__", counting)
    return calls


def test_planning_and_folding_build_no_pose(monkeypatch):
    seats = 32
    config = replace(setup1_config(duration_slots=20, seed=0), num_users=seats)
    experiment = SystemExperiment(config)
    data_plane = DataPlane(config, 0)
    server = experiment.edge_server(DensityValueGreedyAllocator(), data_plane)
    rng = np.random.default_rng(0)

    def uploads():
        return [
            (
                float(rng.uniform(1.0, 7.0)), float(rng.uniform(1.0, 7.0)), 1.6,
                float(rng.uniform(-180.0, 180.0)), float(rng.uniform(-60.0, 60.0)),
                0.0,
            )
            for _ in range(seats)
        ]

    for _ in range(2):
        for seat, row in enumerate(uploads()):
            server._motion.observe_user(seat, row)
    calls = _pose_constructions(monkeypatch)
    for _ in range(6):
        plan = server.plan_slot()
        assert calls[0] == 0, "plan_slot built a Pose"
        assert all(
            len(user_plan.predicted_pose) == 6 for user_plan in plan.users
        )
        achieved, _ = data_plane.deliver(plan)
        server.complete_slot(
            plan,
            indicators=[1 if u.level > 0 else 0 for u in plan.users],
            delays_slots=[0.5 if u.level > 0 else 0.0 for u in plan.users],
            achieved_mbps=achieved,
            delivered_ids=[() for _ in range(seats)],
            released_ids=[() for _ in range(seats)],
            poses=uploads(),
        )
        assert calls[0] == 0, "complete_slot built a Pose"

"""Handoff blob codec: capture/install round-trips and rejection.

The blob is the migration compatibility contract, so these tests pin
it at the unit level — two real servers, one parked session moved
between them — without running slot loops or sockets.
"""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.serve.config import serve_setup1
from repro.serve.server import VrServeServer
from repro.shard.handoff import (
    COUNTER_FIELDS,
    HANDOFF_SCHEMA_KIND,
    HANDOFF_SCHEMA_VERSION,
    HANDOFF_SUPPORTED_VERSIONS,
    capture_seat,
    install_seat,
)
from repro.system.telemetry import SlotUserRecord


def make_server(max_users=2, seed=0):
    config = replace(
        serve_setup1(
            max_users=max_users, duration_slots=11, seed=seed, lockstep=True,
        ),
        resume_grace_s=5.0,
    )
    return VrServeServer(config)


def park_session(server, client="mover", token="tok-" + "a" * 12):
    return server.registry.install_detached(
        client,
        guideline_mbps=18.5,
        joined_slot=0,
        token=token,
        slot=0,
    )


def seed_records(server, seat):
    records = [
        SlotUserRecord(
            slot=slot, user=seat, level=2, demand_mbps=12.0,
            achieved_mbps=11.5, believed_cap_mbps=20.0, displayed=True,
            covered=True, delay_slots=1.0,
        )
        for slot in range(3)
    ]
    server.metrics.telemetry.ingest(records)
    return records


class TestRoundTrip:
    def test_capture_then_install_preserves_identity_and_counters(self):
        source = make_server()
        target = make_server()
        session = park_session(source)
        session.planned_slots = 9
        session.missed_reports = 1
        session.late_reports = 2
        session.dropped_frames = 3
        session.resumes = 4
        session.corrupt_frames = 5
        seed_records(source, session.seat)

        blob = capture_seat(source, session, source_shard=0)
        assert blob["kind"] == HANDOFF_SCHEMA_KIND
        assert blob["version"] == HANDOFF_SCHEMA_VERSION
        assert blob["client"] == "mover"
        assert blob["source_shard"] == 0
        assert blob["counters"] == {
            "planned_slots": 9, "missed_reports": 1, "late_reports": 2,
            "dropped_frames": 3, "resumes": 4, "corrupt_frames": 5,
        }

        landed = install_seat(target, blob)
        assert landed.client == "mover"
        assert landed.token == session.token
        assert landed.guideline_mbps == session.guideline_mbps
        assert landed.detached
        assert landed.ready
        for field in COUNTER_FIELDS:
            assert getattr(landed, field) == getattr(session, field)
        assert target.metrics.migrations_in == 1

    def test_capture_moves_telemetry_and_install_rewrites_seat(self):
        source = make_server()
        target = make_server()
        # Occupy target seat 0 so the mover lands on seat 1.
        park_session(target, client="resident", token="tok-" + "b" * 12)
        session = park_session(source)
        seed_records(source, session.seat)

        blob = capture_seat(source, session, source_shard=0)
        # Telemetry capture is destructive on the source: the records
        # belong to the session, not the shard.
        assert not source.metrics.telemetry.records
        assert len(blob["telemetry"]) == 3

        landed = install_seat(target, blob)
        assert landed.seat == 1
        users = {record.user for record in target.metrics.telemetry.records}
        assert users == {1}
        # Source slot numbers survive: each shard has its own timeline.
        slots = sorted(
            record.slot for record in target.metrics.telemetry.records
        )
        assert slots == [0, 1, 2]

    def test_blob_is_json_round_trippable(self):
        import json

        source = make_server()
        target = make_server()
        session = park_session(source)
        seed_records(source, session.seat)
        blob = json.loads(json.dumps(capture_seat(source, session, 0)))
        landed = install_seat(target, blob)
        assert landed.client == "mover"


class TestRejection:
    def make_blob(self):
        source = make_server()
        session = park_session(source)
        return capture_seat(source, session, source_shard=0)

    def test_wrong_kind_rejected(self):
        target = make_server()
        blob = self.make_blob()
        blob["kind"] = "something-else"
        with pytest.raises(ConfigurationError, match="not a handoff blob"):
            install_seat(target, blob)

    def test_unknown_version_rejected(self):
        target = make_server()
        blob = self.make_blob()
        blob["version"] = HANDOFF_SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="unsupported handoff"):
            install_seat(target, blob)

    def test_empty_token_rejected(self):
        target = make_server()
        blob = self.make_blob()
        blob["token"] = ""
        with pytest.raises(ConfigurationError, match="empty resume token"):
            install_seat(target, blob)

    def test_missing_counter_rejected(self):
        target = make_server()
        blob = self.make_blob()
        del blob["counters"]["resumes"]
        with pytest.raises(ConfigurationError, match="resumes"):
            install_seat(target, blob)

    def test_bad_seat_state_rolls_back_admission(self):
        target = make_server()
        blob = self.make_blob()
        blob["seat"] = {"not": "a seat export"}
        occupancy = target.registry.occupancy()
        with pytest.raises(Exception):
            install_seat(target, blob)
        # The provisional admission was undone: no stranded parked
        # seat, and the seat is reusable.
        assert target.registry.occupancy() == occupancy
        assert target.metrics.migrations_in == 0
        replacement = park_session(target, client="retry")
        assert replacement.seat == 0

    def test_non_finite_seat_state_leaves_target_seat_free(self):
        import json

        target = make_server()
        blob = self.make_blob()
        blob["seat"]["pose_window"] = [[float("nan"), 4.0, 1.6, 0.0, 0.0, 0.0]]
        blob = json.loads(json.dumps(blob))
        with pytest.raises(ConfigurationError, match="pose_window"):
            install_seat(target, blob)
        assert target.registry.occupancy() == 0
        assert target.metrics.migrations_in == 0
        assert target.edge.export_seat(0)["pose_window"] == []
        replacement = park_session(target, client="retry")
        assert replacement.seat == 0

    def test_bad_telemetry_rolls_back_admission(self):
        target = make_server()
        blob = self.make_blob()
        blob["telemetry"] = [{"slot": 1}]
        with pytest.raises(Exception):
            install_seat(target, blob)
        assert target.registry.occupancy() == 0
        assert target.metrics.migrations_in == 0

    def test_full_shard_rejected_before_state_touched(self):
        target = make_server(max_users=1)
        park_session(target, client="resident", token="tok-" + "c" * 12)
        blob = self.make_blob()
        with pytest.raises(ConfigurationError):
            install_seat(target, blob)
        assert target.metrics.migrations_in == 0


class TestTraceIdentity:
    def test_trace_identity_round_trips(self):
        source = make_server()
        target = make_server()
        session = park_session(source)
        session.trace_id = "aaaa1111bbbb2222"
        blob = capture_seat(source, session, source_shard=0)
        assert blob["version"] == HANDOFF_SCHEMA_VERSION
        assert blob["trace_id"] == "aaaa1111bbbb2222"
        # The identity is carried, never re-minted: the landed session
        # keeps the trace minted at original admission.
        landed = install_seat(target, blob)
        assert landed.trace_id == "aaaa1111bbbb2222"

    def test_v1_blob_without_trace_still_installs(self):
        assert 1 in HANDOFF_SUPPORTED_VERSIONS
        source = make_server()
        target = make_server()
        session = park_session(source)
        session.trace_id = "aaaa1111bbbb2222"
        blob = capture_seat(source, session, source_shard=0)
        # A pre-v2 shard's blob: no trace field at all.
        del blob["trace_id"]
        blob["version"] = 1
        landed = install_seat(target, blob)
        assert landed.client == "mover"
        assert landed.trace_id == ""

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
        # Blobs never leave the capturing process: older versions are
        # as foreign as newer ones.
        target = make_server()
        for version in (1, 2, 3, HANDOFF_SCHEMA_VERSION + 1):
            blob = self.make_blob()
            blob["version"] = version
            with pytest.raises(ConfigurationError, match="unsupported handoff"):
                install_seat(target, blob)
        assert target.registry.occupancy() == 0

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("delay_samples", [[1.0]]),
            ("delay_samples", ["ab"]),
            ("delay_samples", [None]),
            ("delay_samples", [[1.0, "x"]]),
            ("delivered_ids", [True]),
        ],
        ids=["one-number", "string", "none", "string-delay", "bool-id"],
    )
    def test_malformed_seat_state_leaves_target_seat_free(self, field, value):
        target = make_server()
        blob = self.make_blob()
        blob["seat"][field] = value
        with pytest.raises(ConfigurationError, match=field):
            install_seat(target, blob)
        assert target.registry.occupancy() == 0
        assert target.metrics.migrations_in == 0
        assert target.edge.export_seat(0)["delay_samples"] == []
        assert target.edge.export_seat(0)["delivered_ids"] == []
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

    @pytest.mark.parametrize(
        "field, value",
        [("level", 300), ("level", -1), ("slot", 2**31),
         ("user", -(2**31) - 1), ("slot", float("inf"))],
        ids=["level-300", "level-negative", "slot-int32", "user-int32",
             "slot-inf"],
    )
    def test_record_outside_the_columns_leaves_target_seat_free(
        self, field, value
    ):
        import json

        source = make_server()
        session = park_session(source)
        seed_records(source, session.seat)
        blob = capture_seat(source, session, source_shard=0)
        blob["telemetry"][-1][field] = value
        blob = json.loads(json.dumps(blob))
        target = make_server()
        with pytest.raises(ConfigurationError, match="telemetry"):
            install_seat(target, blob)
        # Refused before any state changed: no parked session, no
        # records ingested, no seat state imported.
        assert target.registry.occupancy() == 0
        assert target.metrics.migrations_in == 0
        assert len(target.metrics.telemetry) == 0
        assert target.metrics.per_user_quality() == {}
        assert park_session(target, client="retry").seat == 0

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


def _record_slots(server, count):
    """Fold ``count`` slots into every seat's scheduler state."""
    scheduler = server.edge.scheduler
    for t in range(count):
        levels = [1 + (t + n) % 5 for n in range(scheduler.num_users)]
        indicators = [int((t + n) % 7 != 0) for n in range(scheduler.num_users)]
        delays = [0.125 * ((t * 3 + n) % 9) for n in range(scheduler.num_users)]
        scheduler.record_outcomes(levels, indicators, delays)


def _number_free(value):
    """The JSON shape of a document with every number written as 0."""
    if isinstance(value, dict):
        return {key: _number_free(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_number_free(item) for item in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return 0
    return value


class TestLedgerAccumulators:
    """The blob carries the QoE ledger as five running accumulators."""

    def test_scheduler_part_does_not_grow_with_the_session(self):
        import json

        source = make_server()
        sizes = []
        for count in (10, 490):
            _record_slots(source, count)
            state = source.edge.export_seat(0)["scheduler"]
            sizes.append(len(json.dumps(_number_free(state))))
        assert source.edge.scheduler.ledgers[0].horizon == 500
        # Only digit widths may differ between 10 and 500 slots: a
        # per-slot transcript would grow by one row per slot.
        assert sizes[0] == sizes[1]
        assert len(json.dumps(source.edge.export_seat(0)["scheduler"])) < 300

    @pytest.mark.parametrize(
        "field, value",
        [
            ("horizon", None),
            ("sum_levels", True),
            ("horizon", -3),
            ("sum_delay", float("nan")),
            ("sum_viewed_sq", float("inf")),
            ("sum_viewed", 1e9),
        ],
        ids=["missing", "bool", "negative", "nan", "inf", "viewed-above-levels"],
    )
    def test_malformed_accumulators_leave_target_seat_free(self, field, value):
        import json

        source = make_server()
        session = park_session(source)
        _record_slots(source, 12)
        blob = capture_seat(source, session, 0)
        ledger = blob["seat"]["scheduler"]["ledger"]
        if value is None:
            del ledger[field]
        else:
            ledger[field] = value
        target = make_server()
        with pytest.raises(ConfigurationError, match=field):
            install_seat(target, json.loads(json.dumps(blob)))
        assert target.registry.occupancy() == 0
        assert target.metrics.migrations_in == 0
        assert target.edge.scheduler.ledgers[0].horizon == 0
        assert park_session(target, client="retry").seat == 0

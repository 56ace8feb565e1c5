"""Tests for the telemetry collector and its experiment integration."""

import copy
import dataclasses
import json
import pickle

import pytest

from repro.core import DensityValueGreedyAllocator
from repro.errors import ConfigurationError
from repro.system import SystemExperiment, Telemetry, setup1_config
from repro.system.experiment import scaled_config
from repro.system.telemetry import FIELDS, SlotUserRecord


def record(slot=0, user=0, level=3, demand=30.0, achieved=45.0,
           believed=40.0, displayed=True, covered=True, delay=0.7):
    return SlotUserRecord(
        slot, user, level, demand, achieved, believed, displayed, covered, delay
    )


class TestTelemetry:
    def test_add_and_query(self):
        telemetry = Telemetry()
        telemetry.add(record(slot=0, user=0))
        telemetry.add(record(slot=0, user=1))
        telemetry.add(record(slot=1, user=0, displayed=False))
        assert len(telemetry) == 3
        assert len(telemetry.for_user(0)) == 2
        assert len(telemetry.for_slot(0)) == 2

    def test_miss_slots(self):
        telemetry = Telemetry()
        telemetry.add(record(slot=0, displayed=True))
        telemetry.add(record(slot=1, displayed=False))
        telemetry.add(record(slot=2, level=0, displayed=False))
        assert telemetry.miss_slots(0) == [1]  # skips are not misses

    def test_level_timeline_ordered(self):
        telemetry = Telemetry()
        telemetry.add(record(slot=2, level=4))
        telemetry.add(record(slot=0, level=2))
        telemetry.add(record(slot=1, level=3))
        assert telemetry.level_timeline(0) == [2, 3, 4]

    def test_utilisation(self):
        telemetry = Telemetry()
        telemetry.add(record(demand=30.0, achieved=60.0))
        telemetry.add(record(demand=45.0, achieved=45.0))
        assert telemetry.utilisation(0) == pytest.approx(0.75)

    def test_summary(self):
        telemetry = Telemetry()
        telemetry.add(record(displayed=True))
        telemetry.add(record(level=0, demand=0.0))
        summary = telemetry.summary()
        assert summary["records"] == 2.0
        assert summary["transmit_fraction"] == pytest.approx(0.5)
        assert summary["display_fraction"] == pytest.approx(1.0)

    def test_summary_empty_raises(self):
        with pytest.raises(ConfigurationError):
            Telemetry().summary()

    def test_save_csv(self, tmp_path):
        telemetry = Telemetry()
        telemetry.add(record())
        path = tmp_path / "telemetry.csv"
        telemetry.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(FIELDS)
        assert len(lines) == 2

    def test_clear(self):
        telemetry = Telemetry()
        telemetry.add(record())
        telemetry.clear()
        assert len(telemetry) == 0


class TestSlotUserRecord:
    """The record is slotted and frozen; every copy path still works."""

    def test_has_no_instance_dict(self):
        assert not hasattr(record(), "__dict__")
        assert SlotUserRecord.__slots__ == FIELDS

    def test_still_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            record().level = 5

    @pytest.mark.parametrize(
        "clone",
        [
            lambda r: pickle.loads(pickle.dumps(r)),
            lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
            copy.copy,
            copy.deepcopy,
            lambda r: SlotUserRecord.from_dict(r.as_dict()),
            lambda r: dataclasses.replace(r),
        ],
        ids=["pickle", "pickle-0", "copy", "deepcopy", "dict", "replace"],
    )
    def test_round_trips(self, clone):
        original = record(slot=7, user=3, displayed=True, covered=False)
        restored = clone(original)
        assert type(restored) is SlotUserRecord
        assert restored == original
        assert restored.as_row() == original.as_row()
        assert hash(restored) == hash(original)

    def test_replace_changes_one_field(self):
        changed = dataclasses.replace(record(level=3), level=5)
        assert changed.level == 5
        assert changed == record(level=5)
        assert changed != record(level=3)


class TestJsonlExport:
    def test_round_trip_preserves_every_record(self, tmp_path):
        telemetry = Telemetry()
        telemetry.add(record(slot=0, user=0, displayed=True))
        telemetry.add(record(slot=1, user=1, level=0, displayed=False))
        path = tmp_path / "telemetry.jsonl"
        telemetry.save_jsonl(path)
        restored = Telemetry.load_jsonl(path)
        assert restored.records == telemetry.records

    def test_header_carries_kind_and_schema_version(self, tmp_path):
        import json

        from repro.system.telemetry import (
            TELEMETRY_SCHEMA_VERSION,
            TELEMETRY_STREAM_KIND,
        )

        telemetry = Telemetry()
        telemetry.add(record())
        path = tmp_path / "telemetry.jsonl"
        telemetry.save_jsonl(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == TELEMETRY_STREAM_KIND
        assert header["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert header["fields"] == list(FIELDS)

    def test_wrong_kind_rejected(self, tmp_path):
        from repro.errors import ObservabilityError

        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "other", "schema_version": 1}\n')
        with pytest.raises(ObservabilityError):
            Telemetry.load_jsonl(path)

    def test_wrong_schema_version_rejected(self, tmp_path):
        import json

        from repro.errors import ObservabilityError
        from repro.system.telemetry import (
            TELEMETRY_SCHEMA_VERSION,
            TELEMETRY_STREAM_KIND,
        )

        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {
                    "kind": TELEMETRY_STREAM_KIND,
                    "schema_version": TELEMETRY_SCHEMA_VERSION + 1,
                }
            )
            + "\n"
        )
        with pytest.raises(ObservabilityError):
            Telemetry.load_jsonl(path)

    def test_malformed_record_rejected_with_line_number(self, tmp_path):
        from repro.errors import ObservabilityError

        telemetry = Telemetry()
        telemetry.add(record())
        path = tmp_path / "bad.jsonl"
        telemetry.save_jsonl(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"slot": 1}\n')
        with pytest.raises(ObservabilityError, match="missing fields"):
            Telemetry.load_jsonl(path)

    def test_empty_file_rejected(self, tmp_path):
        from repro.errors import ObservabilityError

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ObservabilityError):
            Telemetry.load_jsonl(path)


class _Kept(Telemetry):
    """Keeps every instance, so a refused load can be inspected."""

    made = []

    def __init__(self):
        super().__init__()
        _Kept.made.append(self)


class TestOutOfRangeRefused:
    """The int columns are ``"i"``, ``"i"`` and ``"B"``.

    A value that overflows one used to raise ``OverflowError`` after
    the earlier columns had grown, misaligning every later query.
    """

    BAD = [
        ("slot", 2**31), ("slot", -(2**31) - 1), ("user", 2**31),
        ("user", -(2**31) - 1), ("level", 256), ("level", -1),
    ]

    @staticmethod
    def _lengths(telemetry):
        return {len(column) for column in telemetry._columns()}

    def test_column_edges_are_accepted(self):
        telemetry = Telemetry()
        telemetry.add(record(slot=2**31 - 1, user=-(2**31), level=255))
        telemetry.add(record(slot=-(2**31), user=2**31 - 1, level=0))
        assert [(r.slot, r.user, r.level) for r in telemetry.records] == [
            (2**31 - 1, -(2**31), 255), (-(2**31), 2**31 - 1, 0),
        ]

    @pytest.mark.parametrize("field, value", BAD)
    def test_add_refuses_before_any_column_grows(self, field, value):
        from repro.errors import ObservabilityError

        telemetry = Telemetry()
        telemetry.add(record(slot=1, user=2))
        with pytest.raises(ObservabilityError, match=field):
            telemetry.add(record(**{field: value}))
        assert self._lengths(telemetry) == {1}
        telemetry.add(record(slot=3, user=4))
        assert [(r.slot, r.user) for r in telemetry.records] == [(1, 2), (3, 4)]

    @pytest.mark.parametrize(
        "field, value",
        [("slot", 1.5), ("user", 2.5), ("level", 3.0), ("demand", "fast"),
         ("believed", None), ("delay", "late")],
    )
    def test_wrong_type_rolls_every_column_back(self, field, value):
        # A float user used to append ``slot``, then raise TypeError on
        # the ``user`` column, leaving the columns at [1, 0, 0, ...].
        from repro.errors import ObservabilityError
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        telemetry = Telemetry()
        telemetry.attach_registry(registry)
        telemetry.add(record(slot=1, user=2))
        with pytest.raises(ObservabilityError, match="wrong type"):
            telemetry.add(record(**{field: value}))
        assert self._lengths(telemetry) == {1}
        telemetry.add(record(slot=3, user=4))
        assert [(r.slot, r.user) for r in telemetry.records] == [(1, 2), (3, 4)]
        counter = registry.counter("repro_telemetry_records_total", "")
        assert counter.count == 2

    @pytest.mark.parametrize("field, value", BAD)
    def test_load_jsonl_refuses_before_any_column_grows(
        self, tmp_path, field, value
    ):
        from repro.errors import ObservabilityError

        telemetry = Telemetry()
        telemetry.add(record(slot=1))
        telemetry.add(record(slot=2))
        path = tmp_path / "wide.jsonl"
        telemetry.save_jsonl(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record(**{field: value}).as_dict()) + "\n")
        _Kept.made.clear()
        with pytest.raises(ObservabilityError, match=field):
            _Kept.load_jsonl(path)
        (loaded,) = _Kept.made
        assert self._lengths(loaded) == {2}


class TestRegistryMirror:
    def test_attach_registry_counts_past_and_future_records(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        telemetry = Telemetry()
        telemetry.add(record(slot=0))
        telemetry.attach_registry(registry)
        telemetry.add(record(slot=1))
        counter = registry.counter("repro_telemetry_records_total", "")
        assert counter.count == 2


class TestExperimentIntegration:
    def test_telemetry_captured(self):
        config = scaled_config(setup1_config(seed=9), duration_slots=120)
        experiment = SystemExperiment(config)
        telemetry = Telemetry()
        experiment.run_repeat(
            DensityValueGreedyAllocator(), 0, telemetry=telemetry
        )
        # One record per (transmission slot, user).
        assert len(telemetry) == (config.duration_slots - 1) * config.num_users
        summary = telemetry.summary()
        assert 0.0 < summary["display_fraction"] <= 1.0
        assert summary["mean_demand_mbps"] > 0.0

    def test_pose_staleness_degrades_coverage(self):
        def covered_fraction(latency):
            from dataclasses import replace

            config = replace(
                scaled_config(setup1_config(seed=10), duration_slots=240),
                pose_upload_latency_slots=latency,
                margin_deg=3.0,
                cell_tolerance=0,
            )
            telemetry = Telemetry()
            SystemExperiment(config).run_repeat(
                DensityValueGreedyAllocator(), 0, telemetry=telemetry
            )
            transmitted = [r for r in telemetry.records if r.level > 0]
            return sum(1 for r in transmitted if r.covered) / len(transmitted)

        assert covered_fraction(12) <= covered_fraction(0) + 0.02

    def test_staleness_validation(self):
        from dataclasses import replace

        with pytest.raises(ConfigurationError):
            replace(setup1_config(), pose_upload_latency_slots=-1)

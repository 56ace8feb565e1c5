"""ServeConfig validation of its fault schedule and scalar fields."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.faults.schedule import FAULT_DISCONNECT, FaultEvent, FaultSchedule
from repro.serve.config import serve_setup1


class TestFaultsField:
    @pytest.mark.parametrize("faults", ["x", {"events": []}, 3, ()])
    def test_non_schedule_refused(self, faults):
        # Each of these used to pass the config and then fail inside
        # VrServeServer with an AttributeError.
        with pytest.raises(ConfigurationError, match="FaultSchedule"):
            replace(serve_setup1(max_users=2, duration_slots=11), faults=faults)

    def test_none_and_schedules_accepted(self):
        config = serve_setup1(max_users=2, duration_slots=11)
        assert config.faults is None
        schedule = FaultSchedule(
            events=(FaultEvent(slot=3, seat=1, kind=FAULT_DISCONNECT),)
        )
        assert replace(config, faults=schedule).faults is schedule
        assert replace(config, faults=FaultSchedule()).faults == FaultSchedule()


class TestIntegerFields:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("port", 0.5),
            ("port", True),
            ("expect_clients", True),
            ("expect_clients", 1.0),
            ("lag_degrade_slots", 2.5),
            ("resume_grace_slots", 1.5),
            ("shard_index", 0.5),
            ("shard_index", "0"),
            ("write_degrade_bytes", True),
            ("write_degrade_bytes", 1024.0),
            ("write_drop_bytes", 2.5),
        ],
    )
    def test_non_int_refused(self, name, value):
        # A float port used to bind an ephemeral port, and the other
        # fields took fractional or boolean values silently.
        config = serve_setup1(max_users=2, duration_slots=11)
        with pytest.raises(ConfigurationError, match=f"{name} must be an int"):
            replace(config, **{name: value})

    def test_ints_accepted(self):
        config = serve_setup1(max_users=2, duration_slots=11)
        changed = replace(
            config, port=0, expect_clients=2, lag_degrade_slots=3,
            resume_grace_slots=4, shard_index=1,
        )
        assert (changed.port, changed.expect_clients, changed.shard_index) == (
            0, 2, 1
        )


SECONDS_FIELDS = (
    "start_timeout_s", "join_timeout_s", "report_timeout_s",
    "idle_timeout_s", "resume_grace_s",
)


class TestSecondsFields:
    @pytest.mark.parametrize("name", SECONDS_FIELDS)
    @pytest.mark.parametrize("value", [float("nan"), True, "1"])
    def test_non_number_refused(self, name, value):
        # NaN passed every range check (a NaN resume_grace_s silently
        # turned resume off), and a bool passed as 1 or 0 seconds.
        config = serve_setup1(max_users=2, duration_slots=11)
        with pytest.raises(ConfigurationError, match=f"{name} must be a number"):
            replace(config, **{name: value})

    @pytest.mark.parametrize("name", SECONDS_FIELDS)
    def test_numbers_accepted(self, name):
        config = serve_setup1(max_users=2, duration_slots=11)
        for value in (2, 0.5, float("inf")):
            assert getattr(replace(config, **{name: value}), name) == value

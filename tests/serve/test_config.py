"""ServeConfig validation of its fault schedule."""

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

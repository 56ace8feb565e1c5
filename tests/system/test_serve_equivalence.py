"""Long lockstep runs: the served testbed equals the experiment.

The 61-slot case lives with the other loopback tests
(``tests/serve/test_loopback.py``); these longer runs cover a full
setup-1 run and the router-aware setup 2.
"""

from dataclasses import replace

from repro.system.experiment import setup1_config, setup2_config
from tests.system._lockstep import (
    assert_served_equals_experiment,
    serve_lockstep,
)


class TestLongLockstep:
    def test_setup1_eight_seats_600_slots(self):
        config = setup1_config(duration_slots=600, seed=0)
        result, fleet = serve_lockstep(config)
        assert result.slots == 599
        assert_served_equals_experiment(config, result, fleet)

    def test_router_aware_setup2_fifteen_seats_240_slots(self):
        config = replace(
            setup2_config(duration_slots=240, seed=0), router_aware=True
        )
        result, fleet = serve_lockstep(config)
        assert result.slots == 239
        assert_served_equals_experiment(config, result, fleet)

"""``SystemExperiment.run_repeat`` outputs, pinned by sha256.

Each case runs one repeat with a :class:`Telemetry` collector and
hashes ``repr`` of the per-user figures ``(qoe, quality, delay,
variance, mean_level, fps)`` followed by every telemetry record.  The
digests were recorded from the experiment's own slot code, before it
was shared with the serving loop; any change to the network RNG
order, the fold order or the records shows up here.

The cases cover both Section VI setups, the fault mapping, a stale
pose uplink and a seat count that takes the sorted-sweep solver.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.core.allocation import DensityValueGreedyAllocator
from repro.faults import (
    FAULT_CORRUPT_REPORT,
    FAULT_DELAY_REPORT,
    FAULT_DISCONNECT,
    FaultEvent,
    FaultSchedule,
)
from repro.system.experiment import (
    SystemExperiment,
    setup1_config,
    setup2_config,
)
from repro.system.telemetry import Telemetry

FAULTS = FaultSchedule(events=(
    FaultEvent(slot=20, seat=0, kind=FAULT_DISCONNECT),
    FaultEvent(slot=21, seat=0, kind=FAULT_DISCONNECT),
    FaultEvent(slot=40, seat=5, kind=FAULT_DISCONNECT),
    FaultEvent(slot=45, seat=2, kind=FAULT_CORRUPT_REPORT),
    FaultEvent(slot=60, seat=3, kind=FAULT_DELAY_REPORT, duration_s=0.05),
    FaultEvent(slot=61, seat=7, kind=FAULT_DELAY_REPORT, duration_s=0.05),
    FaultEvent(slot=70, seat=99, kind=FAULT_DISCONNECT),
))

#: ``(config, faults)`` per case.
CASES = {
    "setup1-seed0": (setup1_config(duration_slots=300, seed=0), None),
    "setup1-seed4": (setup1_config(duration_slots=300, seed=4), None),
    "setup2-router-aware": (
        replace(setup2_config(duration_slots=150, seed=1), router_aware=True),
        None,
    ),
    "setup1-faults": (setup1_config(duration_slots=150, seed=2), FAULTS),
    "setup1-pose-latency-2": (
        replace(
            setup1_config(duration_slots=150, seed=3),
            pose_upload_latency_slots=2,
        ),
        None,
    ),
    "setup1-32-seats": (
        replace(setup1_config(duration_slots=100, seed=5), num_users=32),
        None,
    ),
}

#: sha256 of each case's summaries and telemetry records.
DIGESTS = {
    "setup1-seed0": (
        "fc913bb20cb174e7958e39af2d47b830"
        "71a79ba76055296fff1434f36c199c9f"
    ),
    "setup1-seed4": (
        "f1c86f3b8f36e7059554712b05b296a4"
        "ae5021cd7644da52de1f47d25f11c7c9"
    ),
    "setup2-router-aware": (
        "82b0f8b296f5de809d492519543663cb"
        "6c802144faca661b5adffd090998622d"
    ),
    "setup1-faults": (
        "33f902eeb8dad1ec4891795f8a0fa5f6"
        "4ad9a190b97eff4c935557ea72ff3ac2"
    ),
    "setup1-pose-latency-2": (
        "d55947e15cfab13f9c9ee758af253d9f"
        "166dec0badae0f4e1b766cf1003e7b0a"
    ),
    "setup1-32-seats": (
        "28a6e37f2681cbb355fc60986088c97a"
        "5c1cf850621d4bad927265f552330452"
    ),
}


def fingerprint(config, faults):
    telemetry = Telemetry()
    result = SystemExperiment(config).run_repeat(
        DensityValueGreedyAllocator(), 0, telemetry=telemetry, faults=faults
    )
    summaries = tuple(
        (u.qoe, u.quality, u.delay, u.variance, u.mean_level, u.fps)
        for u in result.users
    )
    payload = repr(summaries) + repr(telemetry.records)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_repeat_fingerprint(case):
    assert fingerprint(*CASES[case]) == DIGESTS[case]


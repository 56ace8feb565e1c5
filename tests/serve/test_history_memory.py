"""Per-seat-slot serving history stays as small as exactness allows.

A serving process folds every seat's outcome into the scheduler and
its per-seat quality sums each slot.  The QoE ledgers and the quality
sums keep running totals, not per-slot series, so a paced server
folding slots allocates nothing that stays; a lockstep server also
appends one 42-byte telemetry record per seat; and a stage histogram
in exact mode keeps 8 bytes per sample.
"""

import tracemalloc

import pytest

from repro.core.allocation import DensityValueGreedyAllocator
from repro.core.qoe import QoEWeights
from repro.core.scheduler import CollaborativeVrScheduler
from repro.serve.config import serve_setup1
from repro.serve.metrics import LatencyHistogram
from repro.serve.server import VrServeServer
from repro.system.server import SlotPlan, UserPlan
from repro.system.telemetry import Telemetry

SEATS = 32


def _outcomes(slot):
    levels = [1 + (slot + n) % 6 for n in range(SEATS)]
    indicators = [int((slot * 7 + n) % 5 != 0) for n in range(SEATS)]
    delays = [0.01 * ((slot + 3 * n) % 11) for n in range(SEATS)]
    return levels, indicators, delays


def test_folding_slots_keeps_the_scheduler_flat():
    scheduler = CollaborativeVrScheduler(
        SEATS, DensityValueGreedyAllocator(), QoEWeights(0.1, 0.5)
    )
    feed = [_outcomes(slot) for slot in range(600)]
    tracemalloc.start()
    try:
        for slot, outcome in enumerate(feed):
            scheduler.record_outcomes(*outcome)
            if slot == 100:
                start, _ = tracemalloc.get_traced_memory()
        end, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scheduler.ledgers[0].horizon == 600
    # Ledgers that appended three 8-byte values per seat-slot grew by
    # about 400 KB over these 500 slots; the accumulators do not grow.
    assert end - start < 16 * 1024, end - start


def _fold_growth(lockstep):
    """Traced growth over 500 folded slots of a 32-seat server."""
    server = VrServeServer(
        serve_setup1(max_users=SEATS, duration_slots=11, lockstep=lockstep)
    )
    plan = SlotPlan(
        slot=0,
        users=[
            UserPlan(
                level=1 + n % 6, predicted_pose=None, cell_id=0,
                tile_indices=(), missing_keys=[], missing_bits=[],
                demand_mbps=10.0, nominal_rate_mbps=10.0,
            )
            for n in range(SEATS)
        ],
    )
    achieved = [9.0] * SEATS
    loop = server.slot_loop
    tracemalloc.start()
    try:
        for slot in range(600):
            loop._pending = (slot, plan, achieved)
            loop._fold_pending()
            if slot == 100:
                start, _ = tracemalloc.get_traced_memory()
        end, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loop.slots_run == 600
    assert set(server.metrics.per_user_quality()) == set(range(SEATS))
    return server, end - start


def test_paced_fold_keeps_no_per_seat_slot_history():
    server, grown = _fold_growth(lockstep=False)
    assert len(server.metrics.telemetry) == 0
    # The 16,000 telemetry records a paced server used to keep took
    # about 670 KB; the per-seat quality sums do not grow.
    assert grown < 16 * 1024, grown


def test_lockstep_fold_keeps_42_byte_records():
    server, grown = _fold_growth(lockstep=True)
    assert len(server.metrics.telemetry) == 600 * SEATS
    per_record = grown / (500 * SEATS)
    assert 42 * 0.9 < per_record < 42 * 1.2, per_record


def test_telemetry_record_takes_42_bytes():
    assert sum(column.itemsize for column in Telemetry()._columns()) == 42


@pytest.mark.parametrize("query", [False, True])
def test_exact_latency_samples_take_8_bytes(query):
    hist = LatencyHistogram(exact=True)
    hist.record(0.001)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for i in range(20_000):
            hist.record((i % 97) * 1e-4)
        if query:
            # The sorted view the quantiles read is packed too.
            assert hist.quantile(0.5) > 0
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert hist._samples.itemsize == 8
    per_sample = grown / 20_000
    # Retained samples are 8 bytes each (16 with the sorted view); a
    # list of Python floats kept 32.
    assert per_sample < (16 if query else 8) * 1.2, per_sample

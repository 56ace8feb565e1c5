"""Per-seat-slot serving history stays as small as exactness allows.

A serving process folds every seat's outcome into the scheduler each
slot and appends one telemetry record per seat.  The QoE ledgers keep
running sums, not per-slot series, so folding slots allocates nothing
that stays; telemetry keeps 42 bytes per record; and a stage
histogram in exact mode keeps 8 bytes per sample.
"""

import tracemalloc

import pytest

from repro.core.allocation import DensityValueGreedyAllocator
from repro.core.qoe import QoEWeights
from repro.core.scheduler import CollaborativeVrScheduler
from repro.serve.metrics import LatencyHistogram
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

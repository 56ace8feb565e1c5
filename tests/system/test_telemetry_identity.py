"""The columnar telemetry store equals the list-backed reference.

:class:`~repro.system.telemetry.Telemetry` keeps packed columns and
builds records on demand; ``tests/system/_reference_telemetry.py``
keeps the original list of records.  Fed the same stream, every
query, every extract/ingest order, ``summary`` and the CSV and JSONL
bytes must be identical — on a setup-1 ``run_repeat`` stream and on a
random stream with signed zeros, subnormals and huge values.
"""

import io
import sys
import tracemalloc

import numpy as np
import pytest

from repro.core.allocation import DensityValueGreedyAllocator
from repro.obs.registry import MetricsRegistry
from repro.system.experiment import SystemExperiment, setup1_config
from repro.system.telemetry import SlotUserRecord, Telemetry
from tests.system._reference_telemetry import ReferenceTelemetry

_FLOATS = (0.0, -0.0, 5e-324, sys.float_info.min, 1.5, 1e300,
           sys.float_info.max, 33.333333333333336)


def _setup1_stream():
    reference = ReferenceTelemetry()
    SystemExperiment(setup1_config(duration_slots=120, seed=3)).run_repeat(
        DensityValueGreedyAllocator(), 0, telemetry=reference
    )
    return list(reference.records)


def _random_records(seed, count):
    """Fresh records, built one at a time (nothing else holds them)."""
    rng = np.random.default_rng(seed)

    def value():
        if rng.random() < 0.3:
            return float(rng.choice(_FLOATS))
        return float(rng.uniform(0.0, 120.0))

    for _ in range(count):
        yield SlotUserRecord(
            slot=int(rng.integers(-5, 60)),
            user=int(rng.integers(0, 7)),
            level=int(rng.integers(0, 7)),
            demand_mbps=value(),
            achieved_mbps=value(),
            believed_cap_mbps=value(),
            displayed=bool(rng.random() < 0.7),
            covered=bool(rng.random() < 0.6),
            delay_slots=value(),
        )


def _per_user_quality(records):
    """The viewed-quality fold as the serving metrics wrote it on records."""
    totals = {}
    for record in records:
        quality = float(record.level) if record.displayed else 0.0
        total, count = totals.get(record.user, (0.0, 0))
        totals[record.user] = (total + quality, count + 1)
    return {
        user: total / count for user, (total, count) in sorted(totals.items())
    }


def _exports(store, tmp_path, name):
    path = tmp_path / f"{name}.csv"
    store.save_csv(path)
    jsonl = io.StringIO()
    store.to_jsonl(jsonl)
    return path.read_bytes(), jsonl.getvalue()


def _assert_same(store, reference, tmp_path):
    records = list(reference.records)
    assert list(store.records) == records
    assert len(store) == len(reference)
    users = sorted({r.user for r in records}) + [99]
    slots = sorted({r.slot for r in records}) + [10_000]
    for user in users:
        assert store.for_user(user) == reference.for_user(user)
        assert store.miss_slots(user) == reference.miss_slots(user)
        assert store.level_timeline(user) == reference.level_timeline(user)
        assert store.utilisation(user) == reference.utilisation(user)
    for slot in slots:
        assert store.for_slot(slot) == reference.for_slot(slot)
    assert store.viewed_quality_by_user() == _per_user_quality(records)
    if records:
        assert store.summary() == reference.summary()
    assert _exports(store, tmp_path, "store") == _exports(
        reference, tmp_path, "reference"
    )


@pytest.fixture(params=["setup1", "random"])
def stream(request):
    if request.param == "setup1":
        return _setup1_stream()
    return list(_random_records(seed=18, count=600))


class TestColumnarTelemetry:
    def test_queries_and_exports_equal_the_reference(self, stream, tmp_path):
        store, reference = Telemetry(), ReferenceTelemetry()
        for record in stream:
            store.add(record)
            reference.add(record)
        _assert_same(store, reference, tmp_path)

    def test_extract_and_ingest_keep_the_reference_order(self, stream, tmp_path):
        store, reference = Telemetry(), ReferenceTelemetry()
        store.ingest(stream)
        reference.ingest(stream)
        users = sorted({r.user for r in stream})
        rng = np.random.default_rng(5)
        for user in rng.permutation(users + [99]):
            extracted = store.extract_user(int(user))
            assert extracted == reference.extract_user(int(user))
            _assert_same(store, reference, tmp_path)
            if rng.random() < 0.5:
                store.ingest(extracted)
                reference.ingest(extracted)
                _assert_same(store, reference, tmp_path)

    def test_jsonl_round_trip_and_clear(self, stream, tmp_path):
        store = Telemetry()
        store.ingest(stream)
        store.save_jsonl(tmp_path / "t.jsonl")
        loaded = Telemetry.load_jsonl(tmp_path / "t.jsonl")
        reference = ReferenceTelemetry.load_jsonl(tmp_path / "t.jsonl")
        _assert_same(loaded, reference, tmp_path)
        loaded.clear()
        reference.clear()
        _assert_same(loaded, reference, tmp_path)

    def test_registry_mirror_counts_like_the_reference(self, stream):
        counts = []
        for store in (Telemetry(), ReferenceTelemetry()):
            registry = MetricsRegistry()
            store.ingest(stream[:10])
            store.attach_registry(registry)
            store.ingest(stream[10:20])
            store.extract_user(stream[0].user)
            counts.append(
                registry.counter("repro_telemetry_records_total", "").value
            )
        assert counts[0] == counts[1] == 20

    def test_under_80_bytes_per_record(self):
        """A store holding the record objects takes ~210 B each."""
        list(_random_records(seed=0, count=100))  # warm numpy's caches
        store = Telemetry()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for record in _random_records(seed=1, count=10_000):
                store.add(record)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(store) == 10_000
        assert grown / len(store) < 80

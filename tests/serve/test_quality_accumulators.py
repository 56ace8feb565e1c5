"""Per-seat quality sums equal the telemetry records' means, bit for bit.

``ServingMetrics.per_user_quality`` reads two running integers per
seat (viewed-quality sum and record count) instead of the
:class:`~repro.system.telemetry.Telemetry` record stream, which a paced
server no longer keeps.  Viewed quality is an integer level, so the
sums are exact in any order; these tests feed the same streams to
both and compare with ``==``, across seat reuse and handoffs.
"""

import asyncio
import json
import random
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig
from repro.serve.metrics import ServingMetrics
from repro.serve.mux import run_serve_and_mux_fleet
from repro.serve.server import VrServeServer
from repro.shard.handoff import capture_seat, install_seat
from repro.system.telemetry import SlotUserRecord, Telemetry


def _record(slot, seat, level, displayed):
    return SlotUserRecord(
        slot=slot, user=seat, level=level, demand_mbps=1.0,
        achieved_mbps=1.0, believed_cap_mbps=1.0, displayed=displayed,
        covered=displayed, delay_slots=0.0,
    )


def _feed(metrics, records, record):
    """Fold one record into both the accumulators and the record store."""
    records.add(record)
    metrics.record_viewed_quality(
        record.user, record.level if record.displayed else 0
    )


def _move(source, source_records, seat, target, target_records, new_seat):
    """The handoff: sums move as the records do, under the new seat."""
    total, count = source.take_viewed_quality(seat)
    moved = source_records.extract_user(seat)
    target.record_viewed_quality(new_seat, total, count)
    target_records.ingest([replace(r, user=new_seat) for r in moved])


@pytest.mark.parametrize("seed", range(6))
def test_random_streams_with_reuse_and_handoffs(seed):
    rng = random.Random(seed)
    max_level = rng.choice((6, 255))
    shards = [(ServingMetrics(slot_s=0.01), Telemetry()) for _ in range(2)]
    for slot in range(rng.randint(50, 400)):
        for metrics, records in shards:
            for seat in rng.sample(range(8), rng.randint(0, 8)):
                _feed(metrics, records, _record(
                    slot, seat, rng.randint(0, max_level), rng.random() < 0.7,
                ))
        event = rng.random()
        if event < 0.05:
            # A seat changes shards (possibly onto an occupied seat).
            src, dst = rng.sample(range(2), 2)
            _move(*shards[src], rng.randrange(8), *shards[dst], rng.randrange(8))
        elif event < 0.08:
            # A seat's history leaves and the seat is reused in place.
            metrics, records = shards[rng.randrange(2)]
            seat = rng.randrange(8)
            metrics.take_viewed_quality(seat)
            records.extract_user(seat)
        for metrics, records in shards:
            assert metrics.per_user_quality() == records.viewed_quality_by_user()
    for metrics, records in shards:
        summary = metrics.summary()["per_user_mean_viewed_quality"]
        assert summary == {
            str(seat): quality
            for seat, quality in records.viewed_quality_by_user().items()
        }


def test_sums_stay_exact_where_float_sums_would_round():
    metrics = ServingMetrics(slot_s=0.01)
    metrics.record_viewed_quality(0, 2**53, 1)
    metrics.record_viewed_quality(0, 1, 2)
    assert metrics.per_user_quality() == {0: (2**53 + 1) / 3}


def test_take_of_an_unseen_seat_is_empty():
    metrics = ServingMetrics(slot_s=0.01)
    assert metrics.take_viewed_quality(3) == (0, 0)
    metrics.record_viewed_quality(3, 0, 0)
    assert metrics.per_user_quality() == {}


class TestPacedLoopback:
    def test_paced_run_keeps_no_records_and_matches_the_ledgers(self):
        config = serve_setup1(
            max_users=2, duration_slots=21, seed=0, expect_clients=2,
        )
        result, fleet = asyncio.run(
            run_serve_and_mux_fleet(config, LoadGenConfig(num_clients=2, seed=0))
        )
        metrics = result.metrics
        assert len(metrics.telemetry) == 0
        counter = metrics.registry.counter("repro_telemetry_records_total", "")
        assert counter.value == 0
        # Every seat is folded every slot, as the scheduler's ledgers
        # are, so the sums and the end-of-run summaries agree exactly.
        assert metrics.per_user_quality() == {
            client.seat: client.server_summary["quality"]
            for client in fleet.admitted
        }


def _server(lockstep, max_users=2):
    config = replace(
        serve_setup1(
            max_users=max_users, duration_slots=11, seed=0, lockstep=lockstep,
        ),
        resume_grace_s=5.0,
    )
    return VrServeServer(config)


def _park(server, client, token):
    return server.registry.install_detached(
        client, guideline_mbps=18.5, joined_slot=0, token=token, slot=0,
    )


def _stream(server, records, seats, slots, seed):
    """Fold a seeded stream into a server's sums and the parent's records."""
    rng = random.Random(seed)
    for slot in range(slots):
        for seat in seats:
            _feed(server.metrics, records, _record(
                slot, seat, rng.randint(0, 6), rng.random() < 0.8,
            ))


class TestPacedHandoff:
    """A handoff between two paced servers, against the parent's records."""

    def _migrate(self):
        source, target = _server(False), _server(False)
        source_records, target_records = Telemetry(), Telemetry()
        mover = _park(source, "mover", "tok-" + "a" * 12)
        _park(source, "stayer", "tok-" + "b" * 12)
        _park(target, "resident", "tok-" + "c" * 12)
        _stream(source, source_records, (0, 1), 37, seed=1)
        _stream(target, target_records, (0,), 23, seed=2)
        blob = json.loads(json.dumps(capture_seat(source, mover, 0)))
        return source, target, source_records, target_records, blob

    def test_both_shards_report_the_records_values(self):
        source, target, source_records, target_records, blob = self._migrate()
        assert blob["version"] == 4
        assert blob["telemetry"] == []
        landed = install_seat(target, blob)
        assert landed.seat == 1
        moved = source_records.extract_user(0)
        target_records.ingest([replace(r, user=1) for r in moved])
        assert source.metrics.per_user_quality() == (
            source_records.viewed_quality_by_user()
        )
        assert target.metrics.per_user_quality() == (
            target_records.viewed_quality_by_user()
        )
        assert set(target.metrics.per_user_quality()) == {0, 1}
        assert len(source.metrics.telemetry) == len(target.metrics.telemetry) == 0

    @pytest.mark.parametrize(
        "quality",
        [
            {"sum": -1, "count": 3},
            {"sum": 2, "count": -1},
            {"sum": True, "count": 3},
            {"sum": 2, "count": True},
            {"sum": 2.0, "count": 3},
            {"sum": 2, "count": "3"},
            {"sum": 256 * 3, "count": 3},
            {"sum": 1, "count": 0},
            {"count": 3},
            [2, 3],
            None,
        ],
        ids=[
            "negative-sum", "negative-count", "bool-sum", "bool-count",
            "float-sum", "string-count", "sum-above-255-count",
            "sum-without-count", "missing-sum", "list", "missing",
        ],
    )
    def test_malformed_sums_leave_the_target_seat_free(self, quality):
        _, _, _, _, blob = self._migrate()
        if quality is None:
            del blob["viewed_quality"]
        else:
            blob["viewed_quality"] = quality
        target = _server(False)
        with pytest.raises(ConfigurationError, match="viewed_quality|sum|count"):
            install_seat(target, blob)
        assert target.registry.occupancy() == 0
        assert target.metrics.migrations_in == 0
        assert target.metrics.per_user_quality() == {}
        assert _park(target, "retry", "tok-" + "d" * 12).seat == 0

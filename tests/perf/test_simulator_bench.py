"""The simulator bench names the pool size its parallel arm used."""

from repro.perf.bench import BENCH_KINDS, bench_simulator
from repro.simulation import workers


def _row(table, label_prefix):
    _, rows = table
    return [row for row in rows if str(row[0]).startswith(label_prefix)]


def test_parallel_row_is_labelled_with_the_pool_size_used(monkeypatch):
    # Four workers asked for on two cores: the pool gets two, and the
    # table must say so.
    monkeypatch.setattr(workers.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(
        workers, "run_episodes", lambda *args: None  # replay serially
    )
    run = bench_simulator(
        num_users=2, num_slots=10, num_episodes=4, max_workers=4
    )
    assert run["max_workers"] == 4
    assert run["workers"] == 2
    rows = _row(BENCH_KINDS["simulator"].table(run), "parallel x")
    assert [row[0] for row in rows] == ["parallel x2 (s)"]


def test_serial_fallback_row_names_one_worker(monkeypatch):
    monkeypatch.setattr(workers.os, "cpu_count", lambda: 1)
    run = bench_simulator(
        num_users=2, num_slots=10, num_episodes=2, max_workers=4
    )
    assert run["parallel_fallback"] and run["workers"] == 1
    table = BENCH_KINDS["simulator"].table(run)
    assert _row(table, "parallel x") == [["parallel x1 (s)", "-"]]
    assert _row(table, "serial fallback")[0][1] == run["parallel_reason"]

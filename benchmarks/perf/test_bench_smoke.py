"""Smoke the benchmark harness at tiny scale (not a timing test)."""

import json

from repro.perf.bench import (
    BENCH_KINDS,
    bench_allocator,
    bench_kernel,
    bench_simulator,
    persist_run,
)


def test_bench_allocator_smoke():
    run = bench_allocator(sizes=(5, 30), repeats=1)
    assert [r["num_items"] for r in run["sizes"]] == [5, 30]
    for row in run["sizes"]:
        assert row["solutions_identical"]
        assert row["reference_s"] > 0 and row["heap_s"] > 0
        assert row["array_s"] > 0 and row["array_speedup"] > 0


def test_bench_simulator_smoke():
    run = bench_simulator(num_users=2, num_slots=60, num_episodes=2, max_workers=2)
    assert run["parallel_matches_serial"]
    assert run["warm_slots_per_s"] > 0
    if run["parallel_fallback"]:
        # A pool that cannot pay for itself (e.g. a 1-core box) is
        # recorded honestly instead of as a sub-1.0 speedup.
        assert run["parallel_speedup"] is None
        assert run["parallel_reason"]
    else:
        assert run["parallel_speedup"] > 0


def test_bench_kernel_smoke():
    run = bench_kernel(num_users=50, num_levels=4, num_slots=1, repeats=1)
    assert run["solutions_identical"]
    assert run["array_slots_per_s"] > 0 and run["object_slots_per_s"] > 0
    assert run["predictor"]["identical"]
    assert run["coverage"]["identical"]
    assert run["batch_nbytes"] > 0


def test_persist_run_bounds_history(tmp_path):
    path = tmp_path / BENCH_KINDS["allocator"].file
    for i in range(25):
        document = persist_run({"kind": "allocator", "i": i}, path, now=float(i))
    assert len(document["runs"]) == 20
    assert document["latest"]["i"] == 24
    assert document["runs"][0]["i"] == 5  # oldest runs dropped
    on_disk = json.loads(path.read_text())
    assert on_disk["latest"]["cpu_count"] is not None

    # A corrupt or foreign file is replaced, not crashed on.
    bad = tmp_path / BENCH_KINDS["simulator"].file
    for content in ("{not json", "[1, 2]", '{"runs": 3}'):
        bad.write_text(content)
        document = persist_run({"kind": "simulator"}, bad, now=0.0)
        assert len(document["runs"]) == 1

"""Persistent benchmarks and their regression gate.

:data:`~repro.perf.bench.BENCH_KINDS` is the one table of bench
kinds — the allocator and array kernel, the trace simulator, live
serving, observability overhead and shard scale-out — each with its
``BENCH_*.json`` history file and fixed full and quick parameters.
:mod:`repro.perf.regression` diffs fresh runs against the committed
histories.  Run both with ``python -m repro bench`` (see
``benchmarks/perf/README.md``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.perf.bench": (
            "BENCH_KINDS", "BenchKind", "bench_allocator", "bench_kernel",
            "bench_obs", "bench_scale", "bench_serve", "bench_simulator",
            "persist_run",
        ),
        "repro.perf.regression": (
            "CHECK_MODES", "CHECK_RULES", "CheckReport", "CheckResult",
            "CheckRule", "check_bench", "check_run", "format_report",
            "latest_run",
        ),
    },
)

__all__ = [
    "BENCH_KINDS",
    "BenchKind",
    "CHECK_MODES",
    "CHECK_RULES",
    "CheckReport",
    "CheckResult",
    "CheckRule",
    "bench_allocator",
    "bench_kernel",
    "bench_obs",
    "bench_scale",
    "bench_serve",
    "bench_simulator",
    "check_bench",
    "check_run",
    "format_report",
    "latest_run",
    "persist_run",
]

"""Array-native slot kernel: vectorized predict → allocate → encode.

One slot of the collaborative-VR pipeline, expressed as flat numpy
arrays instead of ``N`` per-user objects:

- :class:`~repro.kernel.batch.SlotBatch` — the ``(N, L)`` view of a
  slot's sizes/delays/statistics, with a vectorized eq. (9) gain
  matrix and :func:`~repro.kernel.batch.mm1_delay_matrix`.
- :func:`~repro.kernel.solver.solve_arrays` /
  :func:`~repro.kernel.solver.solve_batch` — Algorithm 1 as a sorted
  sweep over candidate upgrades, bit-identical to the object heap
  solver whenever its fast-path preconditions hold (and refusing —
  returning ``None`` — when they do not, so callers fall back).
- :class:`~repro.kernel.allocator.ArrayAllocator` — drop-in
  :class:`~repro.core.allocation.QualityAllocator` backed by the
  array solver with automatic object-solver fallback.
- :class:`~repro.kernel.predict.BatchMotionPredictor` — all users'
  linear-regression motion fits in one sweep.
- :class:`~repro.kernel.coverage.BatchCoverage` — vectorized FoV
  coverage indicators sharing the scalar evaluator's exact caches.

See the "Slot kernel" section of ``benchmarks/perf/README.md`` for
layout and performance notes.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.kernel.allocator": ("ArrayAllocator",),
        "repro.kernel.batch": ("SlotBatch", "mm1_delay_matrix"),
        "repro.kernel.coverage": ("BatchCoverage",),
        "repro.kernel.predict": ("BatchMotionPredictor",),
        "repro.kernel.solver": (
            "ArraySolution", "solve_arrays", "solve_batch",
        ),
    },
)

__all__ = [
    "ArrayAllocator",
    "ArraySolution",
    "BatchCoverage",
    "BatchMotionPredictor",
    "SlotBatch",
    "mm1_delay_matrix",
    "solve_arrays",
    "solve_batch",
]

"""Array-native slot kernel: vectorized predict → allocate → encode.

One slot of the collaborative-VR pipeline, expressed as flat numpy
arrays instead of ``N`` per-user objects.  The slot problem itself,
:class:`~repro.core.allocation.SlotProblem`, is already the ``(N, L)``
carrier of a slot's sizes, delays and statistics, with a vectorized
eq. (9) gain matrix; this package holds what runs over it:

- :func:`~repro.kernel.batch.mm1_delay_matrix` — every user's M/M/1
  delay at every level in one sweep.
- :func:`~repro.kernel.solver.solve_arrays` /
  :func:`~repro.kernel.solver.solve_batch` — Algorithm 1 as a sorted
  sweep over candidate upgrades, bit-identical to the object heap
  solver whenever its fast-path preconditions hold (and refusing —
  returning ``None`` — when they do not).  The allocators of
  :mod:`repro.core.allocation` run it from
  :data:`~repro.core.allocation.SWEEP_MIN_USERS` seats on and take
  the heap greedy below that or when it refuses.
- :class:`~repro.kernel.predict.BatchMotionPredictor` — all users'
  linear-regression motion fits in one sweep.

FoV coverage has one implementation,
:class:`~repro.prediction.fov.CoverageEvaluator`, whose
``tiles_to_deliver`` and ``indicators`` already take whole-slot
arrays; :mod:`repro.kernel.coverage` only keeps an alias of it.

See the "Slot kernel" section of ``benchmarks/perf/README.md`` for
layout and performance notes.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.kernel.batch": ("mm1_delay_matrix",),
        "repro.kernel.predict": ("BatchMotionPredictor",),
        "repro.kernel.solver": (
            "ArraySolution", "solve_arrays", "solve_batch",
        ),
    },
)

__all__ = [
    "ArraySolution",
    "BatchMotionPredictor",
    "mm1_delay_matrix",
    "solve_arrays",
    "solve_batch",
]

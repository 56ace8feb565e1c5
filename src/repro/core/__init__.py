"""The paper's primary contribution: QoE model, decomposition, Algorithm 1.

Public surface:

* :class:`~repro.core.qoe.QoEWeights`, :class:`~repro.core.qoe.UserQoELedger`
  — the QoE definition of Section II.
* :mod:`~repro.core.decomposition` — the Welford variance iteration
  (Appendix A) and the per-slot objective ``h_n(q)`` of eq. (9).
* :class:`~repro.core.allocation.SlotProblem`,
  :class:`~repro.core.allocation.DensityValueGreedyAllocator` —
  Algorithm 1 with its 1/2-approximation guarantee (Theorem 1).
* :class:`~repro.core.offline.OfflineOptimalAllocator` — the per-slot
  brute-force optimum of Section IV.
* :mod:`~repro.core.baselines` — Firefly AQC and modified PAVQ.
* :class:`~repro.core.scheduler.CollaborativeVrScheduler` — the online
  state machine tying estimators to the allocator.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.qoe": ("QoEWeights", "UserQoELedger", "system_qoe"),
        "repro.core.decomposition": (
            "slot_objective", "slot_objective_curve", "variance_penalty_term",
            "welford_decomposition",
        ),
        "repro.core.allocation": (
            "DensityValueGreedyAllocator", "DensityGreedyAllocator",
            "QualityAllocator", "SlotProblem", "UserSlotState",
            "ValueGreedyAllocator",
        ),
        "repro.core.offline": ("OfflineOptimalAllocator",),
        "repro.core.baselines": ("FireflyAllocator", "PavqAllocator"),
        "repro.core.scheduler": ("CollaborativeVrScheduler",),
        "repro.core.horizon": ("horizon_optimal_qoe",),
        "repro.core.extensions": (
            "LossAwareAllocator", "delivery_success_probability",
        ),
    },
)

__all__ = [
    "QoEWeights",
    "UserQoELedger",
    "system_qoe",
    "slot_objective",
    "slot_objective_curve",
    "variance_penalty_term",
    "welford_decomposition",
    "SlotProblem",
    "UserSlotState",
    "QualityAllocator",
    "DensityValueGreedyAllocator",
    "DensityGreedyAllocator",
    "ValueGreedyAllocator",
    "OfflineOptimalAllocator",
    "FireflyAllocator",
    "PavqAllocator",
    "CollaborativeVrScheduler",
    "horizon_optimal_qoe",
    "LossAwareAllocator",
    "delivery_success_probability",
]

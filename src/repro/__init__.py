"""Reproduction of "Enhancing Quality of Experience for Collaborative
Virtual Reality with Commodity Mobile Devices" (ICDCS 2022).

The package is organised bottom-up:

* :mod:`repro.knapsack` — the separable nonlinear knapsack substrate
  (problem, greedy / exact solvers, relaxation bounds);
* :mod:`repro.content` — tiles, equirectangular projection, the convex
  size-vs-quality model (Fig. 1a), and the tile database;
* :mod:`repro.prediction` — 6-DoF motion prediction, the coverage
  indicator ``1_n(t)``, and throughput/delay estimators;
* :mod:`repro.traces` — synthetic FCC/LTE network traces and motion
  traces (substitutes for the paper's datasets; see DESIGN.md);
* :mod:`repro.core` — the QoE model, the per-slot decomposition, and
  Algorithm 1 with its baselines and the offline optimum;
* :mod:`repro.simulation` — the Section IV trace-driven simulator;
* :mod:`repro.system` — the Sections V-VI real-system emulation;
* :mod:`repro.analysis` — CDFs and figure-shaped text reports.

Quickstart::

    from repro import (
        DensityValueGreedyAllocator, SimulationConfig, TraceSimulator,
    )

    sim = TraceSimulator(SimulationConfig(num_users=5))
    results = sim.run(DensityValueGreedyAllocator(), num_episodes=3)
    print(results.means())
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core": (
            "CollaborativeVrScheduler", "DensityGreedyAllocator",
            "DensityValueGreedyAllocator", "FireflyAllocator",
            "LossAwareAllocator", "OfflineOptimalAllocator", "PavqAllocator",
            "QoEWeights", "QualityAllocator", "SlotProblem", "UserQoELedger",
            "UserSlotState", "ValueGreedyAllocator", "horizon_optimal_qoe",
            "system_qoe",
        ),
        "repro.core.baselines": ("MaxMinFairAllocator", "UniformAllocator"),
        "repro.simulation": (
            "MM1DelayModel", "MultiEpisodeResults", "SimulationConfig",
            "TraceSimulator",
        ),
        "repro.analysis": (
            "EmpiricalCdf", "comparison_table", "improvement_percent",
        ),
    },
)

__version__ = "1.0.0"

__all__ = [
    "QoEWeights",
    "UserQoELedger",
    "system_qoe",
    "SlotProblem",
    "UserSlotState",
    "QualityAllocator",
    "DensityValueGreedyAllocator",
    "DensityGreedyAllocator",
    "ValueGreedyAllocator",
    "OfflineOptimalAllocator",
    "FireflyAllocator",
    "PavqAllocator",
    "LossAwareAllocator",
    "UniformAllocator",
    "MaxMinFairAllocator",
    "horizon_optimal_qoe",
    "CollaborativeVrScheduler",
    "MM1DelayModel",
    "SimulationConfig",
    "TraceSimulator",
    "MultiEpisodeResults",
    "EmpiricalCdf",
    "comparison_table",
    "improvement_percent",
    "__version__",
]

"""Trace-driven simulation (Section IV of the paper).

The simulator replays network and motion traces slot by slot: it
predicts each user's pose, selects the tiles to deliver, asks the
configured allocator for quality levels under the true throughput
constraints (the paper's simulation assumes perfect network
knowledge), computes the M/M/1 delivery delay (eq. 13), evaluates the
coverage indicator against the true pose, and accumulates each user's
QoE ledger.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.simulation.delaymodel": ("MM1DelayModel", "sample_rtts"),
        "repro.simulation.metrics": (
            "EpisodeResult", "MultiEpisodeResults", "UserEpisodeSummary",
            "summarize_ledger",
        ),
        "repro.simulation.simulator": ("SimulationConfig", "TraceSimulator"),
        "repro.simulation.sweep": (
            "SweepPoint", "best_point", "run_sweep", "sweep_table",
        ),
    },
)

__all__ = [
    "SweepPoint",
    "run_sweep",
    "sweep_table",
    "best_point",
    "MM1DelayModel",
    "sample_rtts",
    "UserEpisodeSummary",
    "EpisodeResult",
    "MultiEpisodeResults",
    "summarize_ledger",
    "SimulationConfig",
    "TraceSimulator",
]

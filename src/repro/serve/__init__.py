"""repro.serve — the live asyncio edge-serving subsystem.

The in-process :mod:`repro.system` experiment answers "what numbers
does the algorithm produce"; this package answers "does it hold up
behind real sockets".  A :class:`~repro.serve.server.VrServeServer`
hosts the same :class:`~repro.system.server.EdgeServer` planning
stack behind a TCP listener (binary frames, see
:mod:`repro.serve.protocol2`), runs a fixed-cadence slot loop with
per-stage deadline metrics, applies admission control and per-client
graceful degradation under overload, and a
:mod:`~repro.serve.mux` fleet of emulated phones
(:mod:`~repro.serve.loadgen`) replays seeded motion traces against it
over loopback.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serve.admission": (
            "REJECT_CAPACITY", "REJECT_DRAINING", "REJECT_RESUME",
            "REJECT_VERSION", "AdmissionDecision", "AdmissionPolicy",
        ),
        "repro.serve.config": (
            "PROTOCOL_VERSION", "ServeConfig", "resume_enabled",
            "serve_setup1",
        ),
        "repro.serve.loadgen": (
            "ClientReport", "FleetReport", "LoadGenConfig", "ReconnectPolicy",
        ),
        "repro.serve.metrics": ("LatencyHistogram", "ServingMetrics"),
        "repro.serve.mux": ("run_mux_fleet", "run_serve_and_mux_fleet"),
        "repro.serve.protocol2": ("BinaryChannelCodec", "WireFrame"),
        "repro.serve.server": ("ServeResult", "VrServeServer"),
        "repro.serve.sessions": ("Session", "SessionRegistry"),
        "repro.serve.slotloop": ("DataPlane", "SlotLoop"),
    },
)

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "BinaryChannelCodec",
    "ClientReport",
    "DataPlane",
    "FleetReport",
    "LatencyHistogram",
    "LoadGenConfig",
    "PROTOCOL_VERSION",
    "ReconnectPolicy",
    "REJECT_CAPACITY",
    "REJECT_DRAINING",
    "REJECT_RESUME",
    "REJECT_VERSION",
    "ServeConfig",
    "ServeResult",
    "ServingMetrics",
    "Session",
    "SessionRegistry",
    "SlotLoop",
    "VrServeServer",
    "WireFrame",
    "resume_enabled",
    "run_mux_fleet",
    "run_serve_and_mux_fleet",
    "serve_setup1",
]

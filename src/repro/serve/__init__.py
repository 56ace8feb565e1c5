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

from repro.serve.admission import (
    REJECT_CAPACITY,
    REJECT_DRAINING,
    REJECT_RESUME,
    REJECT_VERSION,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.serve.config import (
    PROTOCOL_VERSION,
    ServeConfig,
    resume_enabled,
    serve_setup1,
)
from repro.serve.loadgen import (
    ClientReport,
    FleetReport,
    LoadGenConfig,
    ReconnectPolicy,
)
from repro.serve.metrics import LatencyHistogram, ServingMetrics
from repro.serve.mux import run_mux_fleet, run_serve_and_mux_fleet
from repro.serve.protocol2 import BinaryChannelCodec, WireFrame
from repro.serve.server import ServeResult, VrServeServer
from repro.serve.sessions import Session, SessionRegistry
from repro.serve.slotloop import DataPlane, SlotLoop

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

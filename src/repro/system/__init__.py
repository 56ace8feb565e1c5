"""Real-system emulation (Sections V-VI of the paper).

The paper evaluates its algorithm on 8-15 commodity Android phones
behind one or two Wi-Fi routers, with Linux TC throttling each user,
RTP/UDP tile delivery, TCP pose/ACK channels, hardware decoders, and
a transmit/decode/display pipeline.  This subpackage emulates that
testbed as a discrete-event simulation:

* :mod:`~repro.system.events` — the event engine;
* :mod:`~repro.system.netem` — TC-style token throttles, router
  fair-sharing, fading, and the two-router interference field;
* :mod:`~repro.system.transport` — RTP-like lossy delivery and the
  reliable TCP side channel;
* :mod:`~repro.system.client` — decoder pool, tile cache, display
  deadline accounting (FPS);
* :mod:`~repro.system.server` — the edge server: estimation, tile
  selection, dedup, and the pluggable quality allocator;
* :mod:`~repro.system.experiment` — the setup-1 / setup-2 runners
  behind Figs. 7 and 8, and the emulated network (``DataPlane``) they
  share with the live server.

Unlike the Section IV simulator, every quantity the scheduler sees
here is an *estimate* (EMA throughput, polynomial-regression delay),
which is exactly the robustness regime Figs. 7-8 probe.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.system.events": ("EventScheduler",),
        "repro.system.netem": (
            "FadingProcess", "InterferenceField", "Router", "ThrottledLink",
            "TokenBucket", "max_min_fair_share",
        ),
        "repro.system.transport": (
            "RtpChannel", "TcpChannel", "TransmissionResult",
        ),
        "repro.system.client": ("Client", "DecoderPool", "FrameOutcome"),
        "repro.system.server": ("EdgeServer",),
        "repro.system.experiment": (
            "DataPlane", "ExperimentConfig", "SystemExperiment",
            "setup1_config", "setup2_config",
        ),
        "repro.system.rendering": (
            "GpuSpec", "OnlineRenderingPipeline", "RenderJob", "min_gpus_for",
        ),
        "repro.system.telemetry": ("SlotUserRecord", "Telemetry"),
    },
)

__all__ = [
    "EventScheduler",
    "FadingProcess",
    "ThrottledLink",
    "Router",
    "InterferenceField",
    "TokenBucket",
    "max_min_fair_share",
    "RtpChannel",
    "TcpChannel",
    "TransmissionResult",
    "DecoderPool",
    "Client",
    "FrameOutcome",
    "EdgeServer",
    "DataPlane",
    "ExperimentConfig",
    "SystemExperiment",
    "setup1_config",
    "setup2_config",
    "GpuSpec",
    "RenderJob",
    "OnlineRenderingPipeline",
    "min_gpus_for",
    "Telemetry",
    "SlotUserRecord",
]

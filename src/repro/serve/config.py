"""Configuration of the live edge-serving subsystem.

A :class:`ServeConfig` wraps an
:class:`~repro.system.experiment.ExperimentConfig` — the serving data
plane is the in-process experiment's own
:class:`~repro.system.experiment.DataPlane`, built from it, so a
lockstep loopback run reproduces the Section VI numbers — and adds the
serving-only knobs: socket endpoint, admission capacity, slot-loop
pacing, overload thresholds, and timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from typing import Optional

from repro.errors import ConfigurationError
from repro.faults.schedule import FaultSchedule
from repro.obs.config import ObsConfig
from repro.system.experiment import ExperimentConfig, setup1_config
from repro.units import SLOT_DURATION_S

#: Wire-protocol version spoken by server and load generator.
#: Version 2 added session resume (join tokens / welcome resume fields).
PROTOCOL_VERSION = 2


@dataclass(frozen=True)
class ServeConfig:
    """One edge-server deployment.

    Parameters
    ----------
    experiment:
        The emulation parameters shared with
        :class:`~repro.system.experiment.SystemExperiment`; its
        ``num_users`` is the number of scheduler *seats*, i.e. the
        admission capacity ``K``.  ``duration_slots`` bounds the run
        (the loop executes ``duration_slots - 1`` transmission slots,
        mirroring the experiment's t/t+1 display pipeline).
    host / port:
        Listening endpoint; port 0 binds an ephemeral port (the bound
        port is reported by :class:`~repro.serve.server.VrServeServer`).
    expect_clients:
        The slot loop starts only once this many sessions are ready
        (have joined and uploaded their initial pose).
    lockstep:
        When True the loop is barrier-driven: each slot completes only
        after every live session has reported, which removes all
        wall-clock influence on the planning pipeline (used by the
        determinism and experiment-equivalence tests).  When False the
        loop free-runs at the fixed ``slot_s`` cadence and missing
        reports are charged as failures.
    lag_degrade_slots:
        In paced mode, a session this many slots behind on reports is
        degraded to the minimum quality level (constraint (7) floor)
        until it catches up.
    write_degrade_bytes / write_drop_bytes:
        Per-connection backpressure thresholds on the socket write
        buffer: above the first the session is degraded to the
        minimum level, above the second its plan frames are dropped
        outright (counted, never blocking the slot loop).
    start_timeout_s / join_timeout_s / report_timeout_s / idle_timeout_s:
        Wall-clock guards: waiting for ``expect_clients``, for a JOIN
        frame on a fresh connection, for the lockstep report barrier,
        and for any frame on an established connection.
    obs:
        Observability knobs (:class:`~repro.obs.config.ObsConfig`):
        tracing, flight recording, and the ``/metrics`` endpoint.
    faults:
        Optional scripted fault schedule
        (:class:`~repro.faults.schedule.FaultSchedule`).  ``None``
        leaves every fault path cold: the run is bit-identical to a
        build without the fault layer.
    resume_grace_s / resume_grace_slots:
        Session-resume grace window.  A session that loses its
        connection without a BYE is parked ("detached") rather than
        released; a reconnecting client presenting the seat's token
        within the window re-attaches with all scheduler state
        intact.  Lockstep runs measure the window in wall seconds at
        a resume barrier (the slot loop pauses while seats are
        detached, so slot accounting stays deterministic); paced runs
        measure it in slots.  Both default to 0 — resume disabled, a
        lost connection frees the seat immediately — so a config
        that does not opt in behaves exactly as before the fault
        layer existed.
    exact_stage_latency:
        Retain every stage-latency sample for nearest-rank quantiles
        (short benchmark runs); the default keeps bounded buckets only.
    """

    experiment: ExperimentConfig = field(default_factory=setup1_config)
    host: str = "127.0.0.1"
    port: int = 0
    expect_clients: int = 1
    lockstep: bool = False
    lag_degrade_slots: int = 2
    write_degrade_bytes: int = 256 * 1024
    write_drop_bytes: int = 1024 * 1024
    start_timeout_s: float = 30.0
    join_timeout_s: float = 10.0
    report_timeout_s: float = 10.0
    idle_timeout_s: float = 60.0
    obs: ObsConfig = field(default_factory=ObsConfig)
    exact_stage_latency: bool = False
    faults: Optional[FaultSchedule] = None
    resume_grace_s: float = 0.0
    resume_grace_slots: int = 0
    #: Shard index advertised in Welcome frames when this server runs
    #: as one shard of a :mod:`repro.shard` cluster; -1 (the default)
    #: means an unsharded standalone server and changes nothing.
    shard_index: int = -1

    def __post_init__(self) -> None:
        if not 1 <= self.expect_clients <= self.experiment.num_users:
            raise ConfigurationError(
                f"expect_clients must be in [1, {self.experiment.num_users}], "
                f"got {self.expect_clients}"
            )
        if self.port < 0 or self.port > 0xFFFF:
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port}")
        if self.lag_degrade_slots < 1:
            raise ConfigurationError(
                f"lag_degrade_slots must be >= 1, got {self.lag_degrade_slots}"
            )
        if not 0 < self.write_degrade_bytes <= self.write_drop_bytes:
            raise ConfigurationError(
                "need 0 < write_degrade_bytes <= write_drop_bytes, got "
                f"{self.write_degrade_bytes} / {self.write_drop_bytes}"
            )
        for name in (
            "start_timeout_s", "join_timeout_s", "report_timeout_s",
            "idle_timeout_s",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if self.resume_grace_s < 0:
            raise ConfigurationError(
                f"resume_grace_s must be >= 0, got {self.resume_grace_s}"
            )
        if self.resume_grace_slots < 0:
            raise ConfigurationError(
                f"resume_grace_slots must be >= 0, got {self.resume_grace_slots}"
            )
        if self.shard_index < -1:
            raise ConfigurationError(
                f"shard_index must be >= -1, got {self.shard_index}"
            )

    @property
    def max_users(self) -> int:
        """Admission capacity ``K`` (number of scheduler seats)."""
        return self.experiment.num_users

    @property
    def slot_s(self) -> float:
        """Slot duration in seconds (the loop cadence in paced mode)."""
        return self.experiment.slot_s

    @property
    def num_tx_slots(self) -> int:
        """Transmission slots the loop executes before shutting down."""
        return self.experiment.duration_slots - 1


def serve_setup1(
    max_users: int = 8,
    duration_slots: int = 300,
    seed: int = 0,
    slot_s: float = SLOT_DURATION_S,
    host: str = "127.0.0.1",
    port: int = 0,
    expect_clients: int = 1,
    lockstep: bool = False,
) -> ServeConfig:
    """A Section VI setup-1 server behind real sockets.

    ``max_users`` seats (admission cap) and ``duration_slots`` total
    slots over the setup-1 network emulation; further serving knobs
    can be adjusted with :func:`dataclasses.replace` on the result.
    """
    experiment = replace(
        setup1_config(duration_slots=duration_slots, seed=seed),
        num_users=max_users,
        slot_s=slot_s,
    )
    return ServeConfig(
        experiment=experiment,
        host=host,
        port=port,
        expect_clients=expect_clients,
        lockstep=lockstep,
    )


def resume_enabled(config: ServeConfig) -> bool:
    """Whether lost connections are parked for resume (mode-aware)."""
    if config.lockstep:
        return config.resume_grace_s > 0
    return config.resume_grace_slots > 0

"""Online rendering and encoding (the paper's Section VIII).

The evaluated system renders and encodes every tile offline; the
Discussion notes that a live teacher needs *online* rendering, whose
per-slot overhead threatens the synchronisation budget, and suggests
"coordinat[ing] multiple GPUs in a server to enable multiple encoders
working in parallel with the rendering".

This module models that future-work pipeline so its feasibility can be
explored quantitatively: each GPU renders tiles sequentially and hosts
a fixed number of hardware encoder sessions; a slot's tile workload is
packed onto the GPU pool (longest-processing-time) and the pipeline
either fits in the slot or eats into the delivery budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.units import SLOT_DURATION_S


@dataclass(frozen=True)
class GpuSpec:
    """One GPU's rendering and encoding capabilities.

    ``render_ms_per_tile`` is the panorama-tile render time at the
    base quality; rendering cost grows mildly with quality level
    (higher CRF quality encodes slower, rendering is
    resolution-bound and roughly level-independent).
    ``encoder_sessions`` mirrors NVENC's concurrent session limit;
    ``encode_mbps`` is per-session encoder throughput on the encoded
    bitstream.
    """

    render_ms_per_tile: float = 1.2
    encoder_sessions: int = 3
    encode_mbps: float = 700.0

    def __post_init__(self) -> None:
        if self.render_ms_per_tile <= 0:
            raise ConfigurationError(
                f"render time must be positive, got {self.render_ms_per_tile}"
            )
        if self.encoder_sessions < 1:
            raise ConfigurationError(
                f"need at least one encoder session, got {self.encoder_sessions}"
            )
        if self.encode_mbps <= 0:
            raise ConfigurationError(
                f"encode rate must be positive, got {self.encode_mbps}"
            )


@dataclass(frozen=True)
class RenderJob:
    """One tile to render and encode this slot."""

    tile_bits: float
    level: int

    def __post_init__(self) -> None:
        if self.tile_bits < 0:
            raise ConfigurationError(f"tile bits must be >= 0, got {self.tile_bits}")
        if self.level < 1:
            raise ConfigurationError(f"level must be >= 1, got {self.level}")


class OnlineRenderingPipeline:
    """Packs a slot's render+encode workload onto a GPU pool.

    Rendering on a GPU is serial; encoding runs on that GPU's encoder
    sessions in parallel with later renders (the pipelining the paper
    proposes).  A GPU's completion time is therefore
    ``max(render makespan, encode makespan)`` — the two stages overlap
    but each is throughput-bound.
    """

    def __init__(self, num_gpus: int = 4, spec: GpuSpec = GpuSpec()) -> None:
        if num_gpus < 1:
            raise ConfigurationError(f"need at least one GPU, got {num_gpus}")
        self.num_gpus = num_gpus
        self.spec = spec

    def _gpu_time_s(self, jobs: Sequence[RenderJob]) -> float:
        """Completion time of one GPU given its assigned jobs."""
        if not jobs:
            return 0.0
        render_s = len(jobs) * self.spec.render_ms_per_tile / 1e3
        encode_bits = sum(job.tile_bits for job in jobs)
        encode_s = encode_bits / (
            self.spec.encode_mbps * 1e6 * self.spec.encoder_sessions
        )
        return max(render_s, encode_s)

    def makespan_s(self, jobs: Sequence[RenderJob]) -> float:
        """Pipeline completion time for a slot's full workload."""
        ordered = sorted(jobs, key=lambda job: job.tile_bits, reverse=True)
        assignments: List[List[RenderJob]] = [[] for _ in range(self.num_gpus)]
        loads = [0.0] * self.num_gpus
        for job in ordered:
            gpu = min(range(self.num_gpus), key=loads.__getitem__)
            assignments[gpu].append(job)
            loads[gpu] = self._gpu_time_s(assignments[gpu])
        return max(loads) if jobs else 0.0

    def fits_in_slot(
        self, jobs: Sequence[RenderJob], slot_s: float = SLOT_DURATION_S
    ) -> bool:
        """True when the slot's workload meets the frame deadline."""
        return self.makespan_s(jobs) <= slot_s + 1e-12


def min_gpus_for(
    num_users: int,
    tiles_per_user: int,
    tile_bits: float,
    level: int,
    spec: GpuSpec = GpuSpec(),
    slot_s: float = SLOT_DURATION_S,
    max_gpus: int = 64,
) -> int:
    """Smallest GPU pool that renders+encodes a slot's workload on time.

    Returns 0 when even ``max_gpus`` cannot meet the deadline (a
    single tile exceeding the slot makes the workload infeasible at
    any pool size).
    """
    if num_users < 1:
        raise ConfigurationError(f"num_users must be >= 1, got {num_users}")
    jobs = [
        RenderJob(tile_bits, level) for _ in range(num_users * tiles_per_user)
    ]
    for gpus in range(1, max_gpus + 1):
        if OnlineRenderingPipeline(gpus, spec).fits_in_slot(jobs, slot_s):
            return gpus
    return 0

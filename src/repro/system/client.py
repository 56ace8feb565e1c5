"""The phone-side emulation: decoding, caching, display deadlines.

Section V-VI: each user replays a motion trace, uploads poses over
TCP, holds received tiles in a bounded RAM cache (releasing old tiles
with an ACK), decodes with 5 parallel hardware decoders, and either
displays or drops each slot's frame — "each tile will either be
displayed or dropped in each time slot", no prefetching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.content.database import ClientTileCache
from repro.errors import ConfigurationError
from repro.prediction.fov import CoverageEvaluator
from repro.prediction.pose import Pose
from repro.units import CLIENT_DECODERS, SLOT_DURATION_S, clamp_delay_slots

# The delay clamp lives in repro.units so the server can use it without
# loading the phone model; the old names still resolve here.
from repro.units import MAX_DELAY_SLOTS as MAX_DELAY_SLOTS


class DecoderPool:
    """Parallel hardware decoders with longest-processing-time packing.

    Decode time of a tile scales with its encoded size; the pool's
    makespan for a frame is the finish time of its busiest decoder
    under an LPT greedy assignment (how Android MediaCodec sessions
    behave when tiles are dispatched to free decoders).
    """

    def __init__(
        self,
        num_decoders: int = CLIENT_DECODERS,
        decode_rate_mbps: float = 400.0,
    ) -> None:
        if num_decoders < 1:
            raise ConfigurationError(
                f"need at least one decoder, got {num_decoders}"
            )
        if decode_rate_mbps <= 0:
            raise ConfigurationError(
                f"decode rate must be positive, got {decode_rate_mbps}"
            )
        self.num_decoders = num_decoders
        self.decode_rate_mbps = decode_rate_mbps

    def decode_time_s(self, tile_bits: Sequence[float]) -> float:
        """Makespan (seconds) to decode one frame's tiles."""
        jobs = sorted((float(b) for b in tile_bits if b > 0), reverse=True)
        if not jobs:
            return 0.0
        loads = [0.0] * self.num_decoders
        for bits in jobs:
            slot = min(range(self.num_decoders), key=loads.__getitem__)
            loads[slot] += bits / (self.decode_rate_mbps * 1e6)
        return max(loads)


@dataclass(frozen=True)
class FrameOutcome:
    """Per-slot display accounting for one user."""

    displayed: bool
    on_time: bool
    decodable: bool
    tiles_complete: bool
    covered: bool
    level: int
    delay_slots: float

    @property
    def viewed_quality(self) -> float:
        """``q_n(t) * 1_n(t)`` realized by this frame."""
        return float(self.level) if (self.displayed and self.covered) else 0.0

    @property
    def indicator(self) -> int:
        return 1 if (self.displayed and self.covered) else 0


class Client:
    """One emulated phone: tile cache, decoders, display ledger."""

    def __init__(
        self,
        user_id: int,
        cache_capacity_tiles: int = 2000,
        decoder_pool: Optional[DecoderPool] = None,
        slot_s: float = SLOT_DURATION_S,
    ) -> None:
        if user_id < 0:
            raise ConfigurationError(f"user_id must be non-negative, got {user_id}")
        if slot_s <= 0:
            raise ConfigurationError(f"slot duration must be positive, got {slot_s}")
        self.user_id = user_id
        self.cache = ClientTileCache(cache_capacity_tiles)
        self.decoders = decoder_pool if decoder_pool is not None else DecoderPool()
        self.slot_s = slot_s
        self.frames: List[FrameOutcome] = []
        self._delay_samples: List[float] = []
        #: Video ids evicted during the most recent receive_frame call;
        #: the experiment loop forwards them to the server as
        #: release-ACKs (Section V, "Handling repetitive tiles").
        self.last_released: List[int] = []

    def receive_frame(
        self,
        new_tile_ids: Sequence[int],
        new_tile_bits: Sequence[float],
        lost_tile_positions: Sequence[int],
        transmission_s: float,
        covered: bool,
        level: int,
    ) -> FrameOutcome:
        """Process one slot's delivery and record the display outcome.

        Parameters
        ----------
        new_tile_ids / new_tile_bits:
            The tiles actually transmitted this slot (cache misses on
            the server's dedup records).
        lost_tile_positions:
            Indices into ``new_tile_ids`` corrupted by packet loss.
        transmission_s:
            First-to-last packet span (the measured delivery delay).
        covered:
            Whether the delivered FoV-with-margin covered the true
            pose at display time.
        level:
            Quality level allocated for this frame (0 = skipped).

        Returns the frame outcome; skipped frames (level 0) are
        recorded as dropped.
        """
        if len(new_tile_ids) != len(new_tile_bits):
            raise ConfigurationError("tile ids and sizes must align")
        self.last_released = []
        if level == 0:
            outcome = FrameOutcome(
                displayed=False,
                on_time=True,
                decodable=True,
                tiles_complete=False,
                covered=False,
                level=0,
                delay_slots=0.0,
            )
            self.frames.append(outcome)
            return outcome

        lost = set(lost_tile_positions)
        for position, video_id in enumerate(new_tile_ids):
            if position not in lost:
                self.last_released.extend(self.cache.insert(video_id))

        # Pipelining: the tile bundle must arrive within its
        # transmission slot and decode within the next one.
        on_time = transmission_s <= self.slot_s + 1e-12
        decode_s = self.decoders.decode_time_s(new_tile_bits)
        decodable = decode_s <= self.slot_s + 1e-12
        tiles_complete = not lost
        displayed = on_time and decodable and tiles_complete
        delay_slots = transmission_s / self.slot_s
        self._delay_samples.append(delay_slots)

        outcome = FrameOutcome(
            displayed=displayed,
            on_time=on_time,
            decodable=decodable,
            tiles_complete=tiles_complete,
            covered=covered and displayed,
            level=level,
            delay_slots=delay_slots,
        )
        self.frames.append(outcome)
        return outcome

    def fps(self, target_fps: float) -> float:
        """Realized display rate over the whole run."""
        if not self.frames:
            return 0.0
        displayed = sum(1 for f in self.frames if f.displayed)
        return target_fps * displayed / len(self.frames)

    def mean_delay_slots(self) -> float:
        """Mean measured delivery delay in slot units."""
        if not self._delay_samples:
            return 0.0
        return sum(self._delay_samples) / len(self._delay_samples)


@dataclass(frozen=True)
class PlayedFrame:
    """One slot of one phone: the display outcome and its uplink."""

    outcome: FrameOutcome
    #: The measured delay, clamped by :func:`clamp_delay_slots`.
    delay_slots: float
    #: Video ids that arrived intact (the delivery ACK).
    delivered_ids: Tuple[int, ...]


def play_frame(
    phone: Client,
    coverage: CoverageEvaluator,
    trace: Sequence[Pose],
    slot: int,
    level: int,
    predicted_pose: Optional[Sequence[float]],
    video_ids: Sequence[int],
    tile_bits: Sequence[float],
    lost_positions: Sequence[int],
    duration_s: float,
    startup_delay_s: float,
) -> PlayedFrame:
    """Play the frame sent in ``slot`` on one phone.

    Coverage is judged against the trace's true pose of the next slot
    (the display slot), from the plan's predicted row; the transmission
    span includes the server's startup delay only when tiles were sent.
    """
    covered = False
    if level > 0 and predicted_pose is not None:
        predicted = Pose.from_vector(predicted_pose)
        true_pose = trace[min(slot + 1, len(trace) - 1)]
        covered = bool(coverage.evaluate(predicted, true_pose).covered)
    transmission_s = duration_s + startup_delay_s if tile_bits else duration_s
    outcome = phone.receive_frame(
        list(video_ids),
        list(tile_bits),
        list(lost_positions),
        transmission_s,
        covered,
        level,
    )
    lost = set(lost_positions)
    return PlayedFrame(
        outcome=outcome,
        delay_slots=clamp_delay_slots(outcome.delay_slots),
        delivered_ids=tuple(
            vid for position, vid in enumerate(video_ids) if position not in lost
        ),
    )

"""The serving message schema.

The control plane of Fig. 4 carried by real sockets.  These frozen
dataclasses are the one schema of the wire; the binary framing that
carries them is :mod:`repro.serve.protocol2`.

Client → server: ``JoinRequest`` (admission request), ``Ready``
(initial pose), ``SlotReport`` (one slot's realized outcome: delivery
ACKs, release ACKs, display indicator, measured delay, and the slot's
pose upload), ``Bye``.  Server → client: ``Welcome`` (seat assignment
and the emulation parameters the client needs), ``Reject`` (admission
denied, with a machine-readable code), ``Redirect`` (connect to
another shard), ``TilePlan`` (one slot's tile bundle: quality level,
video ids, per-tile sizes, and the emulated RTP transmission outcome),
``EndOfRun`` (run complete, with the server's view of the session's
QoE).

Tile *payloads* are not shipped as bytes — the RTP data plane is
emulated server-side with :class:`~repro.system.transport.RtpChannel`
— but every quantity a real client would measure (per-tile sizes,
lost packets, first-to-last-packet span) crosses the wire so the
client-side display pipeline runs on exactly the data a phone would
have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.errors import TransportError

#: Frames larger than this are rejected (a frame is one slot of one
#: user's control data — far below this bound in practice).
MAX_FRAME_BYTES = 1 << 20


@dataclass(frozen=True)
class JoinRequest:
    """Client -> server: ask for a seat.

    A non-empty ``token`` turns the join into a *resume*: the client
    lost its connection and asks to re-attach to the seat that issued
    the token, provided the grace window has not expired.
    """

    client: str
    version: int
    token: str = ""


@dataclass(frozen=True)
class Welcome:
    """Server -> client: admitted; everything needed to emulate a phone."""

    seat: int
    version: int
    slot_s: float
    num_tx_slots: int
    guideline_mbps: float
    level_count: int
    world_size_m: float
    world_cell_m: float
    margin_deg: float
    cell_tolerance: int
    client_cache_tiles: int
    num_decoders: int
    decode_rate_mbps: float
    lockstep: bool
    resume_token: str = ""
    resumed: bool = False
    #: Index of the shard that owns this session (-1: unsharded server).
    shard: int = -1


@dataclass(frozen=True)
class Reject:
    """Server -> client: admission denied."""

    code: str
    reason: str
    capacity: int


@dataclass(frozen=True)
class Redirect:
    """Server -> client: connect to another endpoint instead.

    Sent by a shard coordinator in place of a :class:`Welcome` (the
    router assigned the client to a shard) or mid-session when a
    seat is migrated to another shard.  The client should reconnect
    to ``host:port`` — presenting its resume token when it holds one
    — and expect the regular admission/resume handshake there.
    """

    host: str
    port: int
    shard: int
    reason: str


@dataclass(frozen=True)
class Ready:
    """Client -> server: initial pose; the session may now be planned."""

    pose: Tuple[float, ...]


@dataclass(frozen=True)
class TilePlan:
    """Server -> client: one slot's bundle and its emulated delivery."""

    slot: int
    level: int
    predicted_pose: Optional[Tuple[float, ...]]
    video_ids: Tuple[int, ...]
    tile_bits: Tuple[float, ...]
    lost_positions: Tuple[int, ...]
    duration_s: float
    startup_delay_s: float
    demand_mbps: float
    achieved_mbps: float
    degraded: bool


@dataclass(frozen=True)
class SlotReport:
    """Client -> server: one slot's realized outcome plus pose upload."""

    slot: int
    delivered_ids: Tuple[int, ...]
    released_ids: Tuple[int, ...]
    indicator: int
    delay_slots: float
    viewed_quality: float
    pose: Tuple[float, ...]


@dataclass(frozen=True)
class EndOfRun:
    """Server -> client: the run is over; the server's QoE view."""

    slots: int
    reason: str
    summary: Mapping[str, float]


@dataclass(frozen=True)
class Bye:
    """Client -> server: leaving voluntarily."""

    reason: str


ServeMessage = Union[
    JoinRequest,
    Welcome,
    Reject,
    Redirect,
    Ready,
    TilePlan,
    SlotReport,
    EndOfRun,
    Bye,
]


def pose_to_wire(poses: Sequence[float]) -> Tuple[float, ...]:
    """Clamp a pose vector into the 6-float wire representation."""
    values = tuple(float(v) for v in poses)
    if len(values) != 6:
        raise TransportError(f"a pose has 6 components, got {len(values)}")
    return values

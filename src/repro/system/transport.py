"""Transport emulation: RTP-like lossy delivery.

Section V: tiles travel over RTP (on UDP) so the sender controls the
rate directly — no TCP congestion control — at the cost of packet
loss; poses and tile ACKs travel over TCP, which is reliable but adds
a little latency.  Section VIII acknowledges that loss is "inevitable"
and untreated by the optimization — the emulation therefore models it
below the algorithm, exactly as the real system experiences it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError, TransportError

_EPS = 1e-9


@dataclass(frozen=True)
class TransmissionResult:
    """Outcome of sending one slot's tile bundle to one user."""

    duration_s: float
    packets_sent: int
    packets_lost: int
    lost_tile_indices: Tuple[int, ...]

    @property
    def loss_ratio(self) -> float:
        return self.packets_lost / self.packets_sent if self.packets_sent else 0.0


class RtpChannel:
    """Rate-controlled, unreliable tile delivery.

    Loss model: a base wireless loss floor plus a congestion component
    that ramps up as the offered demand approaches the achieved rate
    — sending into a shrinking link is how the real testbed loses
    packets when throughput estimates overshoot.

    Parameters
    ----------
    packet_bits:
        RTP packet payload size (1500 B MTU ~ 12 kbit).
    base_loss:
        Floor per-packet loss probability on a clean link.
    congestion_loss:
        Additional loss at 100% overshoot (demand = 2x achieved).
    starved_duration_s:
        Bounded worst-case duration reported when the link is starved
        (zero achieved rate).  A finite value keeps every downstream
        consumer — the delay clamp in the emulation, the serving
        layer's wire protocol, percentile math — well-defined; at 60 s
        it is equivalent to the old ``inf`` sentinel everywhere a
        delay is clamped to 60 slots.
    """

    def __init__(
        self,
        packet_bits: float = 12_000.0,
        base_loss: float = 0.001,
        congestion_loss: float = 0.25,
        starved_duration_s: float = 60.0,
    ) -> None:
        if packet_bits <= 0:
            raise ConfigurationError(f"packet size must be positive, got {packet_bits}")
        if not 0 <= base_loss < 1:
            raise ConfigurationError(f"base_loss must be in [0, 1), got {base_loss}")
        if not 0 <= congestion_loss <= 1:
            raise ConfigurationError(
                f"congestion_loss must be in [0, 1], got {congestion_loss}"
            )
        if not (starved_duration_s > 0 and math.isfinite(starved_duration_s)):
            raise ConfigurationError(
                f"starved duration must be finite and positive, "
                f"got {starved_duration_s}"
            )
        self.packet_bits = packet_bits
        self.base_loss = base_loss
        self.congestion_loss = congestion_loss
        self.starved_duration_s = starved_duration_s

    def packets_for(self, bits: float) -> int:
        """Number of packets needed for a payload."""
        if bits < 0:
            raise TransportError(f"payload must be non-negative, got {bits}")
        return int(math.ceil(bits / self.packet_bits)) if bits > 0 else 0

    def loss_probability(self, demand_mbps: float, achieved_mbps: float) -> float:
        """Per-packet loss probability given offered vs achieved rate."""
        if demand_mbps <= _EPS or achieved_mbps <= _EPS:
            return self.base_loss if demand_mbps > _EPS else 0.0
        overshoot = max(demand_mbps / achieved_mbps - 1.0, 0.0)
        return min(self.base_loss + self.congestion_loss * min(overshoot, 1.0), 0.99)

    def transmit(
        self,
        tile_bits: List[float],
        demand_mbps: float,
        achieved_mbps: float,
        rng: np.random.Generator,
    ) -> TransmissionResult:
        """Send a bundle of tiles; sample per-tile packet losses.

        ``duration_s`` is the first-to-last-packet span at the
        *achieved* rate — the quantity the client's delay measurement
        observes (Section V, "Delay measurement and prediction").
        """
        total_bits = float(sum(tile_bits))
        if total_bits <= _EPS:
            return TransmissionResult(0.0, 0, 0, tuple())
        if achieved_mbps <= _EPS:
            # Link starved out entirely this slot: everything is lost.
            # The duration stays finite (bounded worst case) so delay
            # math and wire encodings never have to special-case inf.
            packets = sum(self.packets_for(b) for b in tile_bits)
            return TransmissionResult(
                self.starved_duration_s, packets, packets,
                tuple(range(len(tile_bits))),
            )
        duration_s = total_bits / (achieved_mbps * 1e6)
        p_loss = self.loss_probability(demand_mbps, achieved_mbps)
        packets_sent = 0
        packets_lost = 0
        lost_tiles: List[int] = []
        for idx, bits in enumerate(tile_bits):
            n_packets = self.packets_for(bits)
            packets_sent += n_packets
            if n_packets == 0:
                continue
            lost = int(rng.binomial(n_packets, p_loss))
            packets_lost += lost
            if lost > 0:
                # Any lost packet corrupts the encoded tile.
                lost_tiles.append(idx)
        return TransmissionResult(duration_s, packets_sent, packets_lost, tuple(lost_tiles))


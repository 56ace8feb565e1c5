"""Shared unit conventions for the whole library.

The paper unifies the units of content size and network throughput "by
fixing each time slot duration" (Section II).  We adopt the same
convention throughout:

* **Rates and sizes** are expressed in *Mbps-equivalents*: the size of a
  piece of content is reported as the constant sending rate (in Mbps)
  required to deliver it within exactly one time slot.  With this
  convention the constraints (2)-(3) of the paper compare sizes and
  throughputs directly, with no conversion factors.
* **Delays** produced by the M/M/1 model (eq. 13) are dimensionless
  multiples of a slot's transmission budget; they convert to seconds by
  multiplying with :data:`SLOT_DURATION_S`.
* **Time** is slot-indexed (``t = 1, 2, ...`` as in the paper) unless a
  variable is explicitly suffixed ``_s`` for seconds.

These constants mirror the experimental configuration in Sections IV
and VI of the paper.
"""

from __future__ import annotations

import math

#: Target display rate used throughout the paper (Section II).
TARGET_FPS: int = 60

#: Slot duration in seconds.  The paper quotes "15ms under 66 FPS" in
#: Section IV; we keep the canonical 60 FPS slot of ~16.7 ms as the
#: default and expose the 15 ms variant for the trace expansion code.
SLOT_DURATION_S: float = 1.0 / TARGET_FPS

#: Slot duration quoted in the trace-expansion passage of Section IV.
TRACE_SLOT_DURATION_S: float = 0.015

#: Number of quality levels (Section IV and VI: six CRF values).
DEFAULT_NUM_LEVELS: int = 6

#: CRF values used to encode the tiles (Section VI), ordered from the
#: *highest* quality (lowest CRF) to the lowest quality.
CRF_VALUES: tuple = (15, 19, 23, 27, 31, 35)

#: Network trace clamp bounds from Section IV (Mbps).
TRACE_MIN_MBPS: float = 20.0
TRACE_MAX_MBPS: float = 100.0

#: Per-user server budget rule from Section IV: the total bandwidth of
#: the server is 36 Mbps times the number of users.
SERVER_MBPS_PER_USER: float = 36.0

#: Length of each simulated network trace in seconds (Section IV).
TRACE_LENGTH_S: float = 300.0

#: QoE weights used by the trace-based simulation (Section IV).
SIM_ALPHA: float = 0.02
SIM_BETA: float = 0.5

#: QoE weights used by the real-system experiments (Section VI).
SYSTEM_ALPHA: float = 0.1
SYSTEM_BETA: float = 0.5

#: Throttle guidelines randomly assigned to users in the real-system
#: experiments (Section VI), in Mbps.
THROTTLE_GUIDELINES_MBPS: tuple = (40.0, 45.0, 50.0, 55.0, 60.0)

#: Server caps for the two real-system setups (Section VI), in Mbps.
SETUP1_SERVER_MBPS: float = 400.0
SETUP2_SERVER_MBPS: float = 800.0

#: Number of parallel hardware decoders per client (Section VI).
CLIENT_DECODERS: int = 5

#: Fraction of the panorama covered by the field of view (Section II:
#: "a user just needs to see about 20% of the panoramic view").
FOV_FRACTION: float = 0.20


#: The bounded worst-case delay (in slots) charged for one frame: a
#: starved slot (zero achieved rate) has no finite delivery time, and
#: a session that misses its report is charged the same.  One second's
#: worth of slots — harsh, but bounded, so a single outlier cannot
#: smash the polynomial delay fit or the QoE ledger.
MAX_DELAY_SLOTS = 60.0


def clamp_delay_slots(delay_slots: float) -> float:
    """Bound a measured delay to ``[0, MAX_DELAY_SLOTS]``."""
    if not math.isfinite(delay_slots):
        return MAX_DELAY_SLOTS
    return max(min(delay_slots, MAX_DELAY_SLOTS), 0.0)


def mbps_to_bits_per_slot(rate_mbps: float, slot_s: float = SLOT_DURATION_S) -> float:
    """Convert a rate in Mbps into the number of bits sent in one slot."""
    return rate_mbps * 1e6 * slot_s


def bits_per_slot_to_mbps(bits: float, slot_s: float = SLOT_DURATION_S) -> float:
    """Convert a per-slot bit count into its Mbps-equivalent rate."""
    return bits / (1e6 * slot_s)

"""Exception hierarchy for the library.

All library-raised exceptions derive from :class:`ReproError` so that
callers can catch everything produced by this package with a single
``except`` clause while still letting programming errors (``TypeError``
etc.) propagate.
"""

from __future__ import annotations

import math
from typing import Iterable


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A component was constructed with inconsistent parameters."""


class InfeasibleAllocationError(ReproError):
    """No feasible quality allocation exists for the given budgets.

    Raised by allocators when even the minimum quality level for every
    user exceeds the available throughput and degradation to "skip"
    (quality 0) has been disabled.
    """


class TraceError(ReproError):
    """A trace is malformed, empty, or exhausted."""


class SimulationError(ReproError):
    """The simulator reached an invalid internal state."""


class TransportError(ReproError):
    """The emulated transport was used incorrectly."""


class FrameCorruptError(TransportError):
    """A complete frame arrived but its body cannot be decoded.

    Framing stayed intact (the length prefix was honoured), so the
    stream is still synchronized: the receiver may quarantine the
    frame — drop it, count it — and keep reading.  Contrast with a
    plain :class:`TransportError`, which on the wire path means the
    framing itself is lost and the connection must go down.
    """


class ObservabilityError(ReproError):
    """The observability layer was misused or fed malformed data."""


def require_ints(config: object, names: Iterable[str]) -> None:
    """Refuse a config whose named fields are not all ints (or are bools)."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"{name} must be an int, got {value!r}")


def require_numbers(
    config: object, names: Iterable[str], finite: bool = False
) -> None:
    """Refuse a bool, a non-number or NaN (and ±inf if ``finite``) field.

    NaN passes every range check (``nan < 0`` is False), so a config
    refuses it up front instead of failing deep inside a run.
    """
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            not math.isfinite(value) if finite else math.isnan(value)
        ):
            raise ConfigurationError(f"{name} must be a number, got {value!r}")

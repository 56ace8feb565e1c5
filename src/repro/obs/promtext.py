"""Prometheus text-exposition parsing and validation.

The CI loopback smoke job scrapes the live ``/metrics`` page mid-run
and must fail on malformed output, so the validator here is strict
about the parts scrapers actually depend on: ``HELP``/``TYPE``
comment shape, sample-line grammar, samples only for declared
families (modulo the ``_bucket``/``_sum``/``_count`` suffixes of
histograms), numeric values, and cumulative ``le`` buckets that never
decrease and end at ``+Inf``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ObservabilityError

_METRIC_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


@dataclass(frozen=True)
class ExpositionSummary:
    """What a valid exposition page contained."""

    families: Dict[str, str]
    samples: int


def _parse_value(token: str, line_no: int) -> float:
    if token in ("+Inf", "-Inf", "NaN"):
        return {"+Inf": float("inf"), "-Inf": float("-inf")}.get(
            token, float("nan")
        )
    try:
        return float(token)
    except ValueError:
        raise ObservabilityError(
            f"line {line_no}: non-numeric sample value {token!r}"
        ) from None


def _parse_labels(raw: str, line_no: int) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    if not raw.strip():
        return labels
    depth_safe_parts: List[str] = []
    current: List[str] = []
    in_string = False
    escaped = False
    for char in raw:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_string = not in_string
            current.append(char)
            continue
        if char == "," and not in_string:
            depth_safe_parts.append("".join(current))
            current = []
            continue
        current.append(char)
    if "".join(current).strip():
        depth_safe_parts.append("".join(current))
    for part in depth_safe_parts:
        match = _LABEL_PAIR_RE.match(part.strip())
        if match is None:
            raise ObservabilityError(
                f"line {line_no}: malformed label pair {part.strip()!r}"
            )
        name = match.group("name")
        if name in labels:
            raise ObservabilityError(
                f"line {line_no}: duplicate label {name!r}"
            )
        labels[name] = match.group("value")
    return labels


def _base_family(name: str, families: Dict[str, str]) -> str:
    """Map a sample name to its declared family (histogram suffixes)."""
    if name in families:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if families.get(base) in ("histogram", "summary"):
                return base
    raise ObservabilityError(f"sample {name!r} has no TYPE declaration")


def validate_exposition(text: str) -> ExpositionSummary:
    """Validate a Prometheus text page; raise on any malformation.

    Returns an :class:`ExpositionSummary` with the declared families
    and the number of sample lines.
    """
    families: Dict[str, str] = {}
    helped: Dict[str, bool] = {}
    samples = 0
    # (family, label-values-minus-le) -> last cumulative bucket value.
    bucket_state: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(" ", 1)
            if not parts or not parts[0]:
                raise ObservabilityError(f"line {line_no}: malformed HELP")
            helped[parts[0]] = True
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split()
            if len(parts) != 2 or parts[1] not in _TYPES:
                raise ObservabilityError(f"line {line_no}: malformed TYPE")
            if parts[0] in families:
                raise ObservabilityError(
                    f"line {line_no}: duplicate TYPE for {parts[0]!r}"
                )
            families[parts[0]] = parts[1]
            continue
        if line.startswith("#"):
            # Other comments are legal and ignored.
            continue
        match = _METRIC_LINE_RE.match(line)
        if match is None:
            raise ObservabilityError(
                f"line {line_no}: malformed sample line {line!r}"
            )
        name = match.group("name")
        labels = _parse_labels(match.group("labels") or "", line_no)
        value = _parse_value(match.group("value"), line_no)
        family = _base_family(name, families)
        kind = families[family]
        if kind == "counter" and value < 0:
            raise ObservabilityError(
                f"line {line_no}: counter {name!r} is negative"
            )
        if name.endswith("_bucket") and kind == "histogram":
            if "le" not in labels:
                raise ObservabilityError(
                    f"line {line_no}: histogram bucket without le label"
                )
            series = (
                family,
                tuple(sorted(
                    (k, v) for k, v in labels.items() if k != "le"
                )),
            )
            previous = bucket_state.get(series)
            if previous is not None and value < previous:
                raise ObservabilityError(
                    f"line {line_no}: bucket counts decrease for {family!r}"
                )
            bucket_state[series] = value
        samples += 1
    _check_inf_buckets(text, families)
    return ExpositionSummary(families=families, samples=samples)


def _check_inf_buckets(text: str, families: Dict[str, str]) -> None:
    """Every histogram with buckets must close them with le="+Inf"."""
    seen_buckets: Dict[str, bool] = {}
    seen_inf: Dict[str, bool] = {}
    for line in text.splitlines():
        match = _METRIC_LINE_RE.match(line.strip())
        if match is None:
            continue
        name = match.group("name")
        if not name.endswith("_bucket"):
            continue
        base = name[: -len("_bucket")]
        if families.get(base) != "histogram":
            continue
        seen_buckets[base] = True
        if 'le="+Inf"' in (match.group("labels") or ""):
            seen_inf[base] = True
    for base in seen_buckets:
        if base not in seen_inf:
            raise ObservabilityError(
                f"histogram {base!r} has buckets but no +Inf bucket"
            )

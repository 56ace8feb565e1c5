"""Lint configuration: registry defaults overridden by ``pyproject.toml``.

The engine reads ``[tool.repro.lint]``::

    [tool.repro.lint]
    exclude = ["__pycache__"]          # path substrings never scanned

    [tool.repro.lint.rules.RL003]
    enabled = true
    severity = "warning"               # "error" | "warning"
    include = ["src"]                  # path substrings; "*" = everywhere
    banned_raises = ["ValueError"]     # any extra keys become rule options

On Python >= 3.11 the standard :mod:`tomllib` does the parsing; older
interpreters fall back to a minimal built-in parser that understands
exactly the subset above (string/bool/int/float scalars and possibly
multi-line arrays under ``[tool.repro.lint*]`` headers; all other
sections are skipped) so the lint gate runs on every CI matrix entry
without new dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.lint.findings import SEVERITIES
from repro.lint.registry import RULE_REGISTRY

try:  # Python >= 3.11
    import tomllib as _tomllib
except ImportError:  # pragma: no cover - exercised only on older CI
    _tomllib = None

class _TomlParseError(ValueError):
    """Internal: the (fallback) TOML parser rejected the document."""


#: Directory-name fragments skipped during file discovery.
DEFAULT_EXCLUDES: Tuple[str, ...] = (
    "__pycache__", ".git/", ".venv/", "build/", "dist/", ".egg-info",
)


@dataclass(frozen=True)
class RuleConfig:
    """Effective per-rule settings after merging config over defaults."""

    enabled: bool = True
    severity: str = "error"
    include: Tuple[str, ...] = ("*",)
    options: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class LintConfig:
    """Effective engine settings."""

    rules: Mapping[str, RuleConfig] = field(default_factory=dict)
    exclude: Tuple[str, ...] = DEFAULT_EXCLUDES

    def rule(self, code: str) -> RuleConfig:
        try:
            return self.rules[code]
        except KeyError:
            raise ConfigurationError(f"unknown lint rule {code!r}") from None


def default_config() -> LintConfig:
    """Registry defaults with no pyproject overrides."""
    return LintConfig(rules={
        code: RuleConfig(
            enabled=True,
            severity=cls.default_severity,
            include=cls.default_includes,
        )
        for code, cls in sorted(RULE_REGISTRY.items())
    })


def load_config(pyproject: Optional[Path]) -> LintConfig:
    """Merge ``[tool.repro.lint]`` from a pyproject file over defaults.

    ``None`` or a missing file yields the defaults; a malformed file or
    an unknown rule code raises :class:`ConfigurationError` so the CLI
    can report a usage error (exit 2) rather than lint with a half-read
    configuration.
    """
    config = default_config()
    if pyproject is None or not pyproject.is_file():
        return config
    try:
        document = _parse_toml(pyproject.read_text(encoding="utf-8"))
    except (_TomlParseError, OSError) as exc:
        raise ConfigurationError(f"cannot read {pyproject}: {exc}") from exc
    section = document.get("tool", {}).get("repro", {}).get("lint", {})
    if not isinstance(section, dict) or not section:
        return config
    return merge_config(config, section, source=str(pyproject))


def merge_config(
    base: LintConfig, section: Mapping[str, Any], source: str = "<config>"
) -> LintConfig:
    """Overlay a ``[tool.repro.lint]``-shaped mapping onto ``base``."""
    exclude = base.exclude
    if "exclude" in section:
        exclude = tuple(_string_list(section["exclude"], "exclude", source))
    rules: Dict[str, RuleConfig] = dict(base.rules)
    overrides = section.get("rules", {})
    if not isinstance(overrides, Mapping):
        raise ConfigurationError(f"{source}: [tool.repro.lint.rules] must be a table")
    for code, raw in sorted(overrides.items()):
        if code not in rules:
            raise ConfigurationError(f"{source}: unknown lint rule {code!r}")
        if not isinstance(raw, Mapping):
            raise ConfigurationError(f"{source}: rule {code} must be a table")
        rules[code] = _merge_rule(rules[code], code, raw, source)
    return LintConfig(rules=rules, exclude=exclude)


def _merge_rule(
    base: RuleConfig, code: str, raw: Mapping[str, Any], source: str
) -> RuleConfig:
    enabled = base.enabled
    severity = base.severity
    include = base.include
    options = dict(base.options)
    for key, value in raw.items():
        if key == "enabled":
            if not isinstance(value, bool):
                raise ConfigurationError(f"{source}: {code}.enabled must be a bool")
            enabled = value
        elif key == "severity":
            if value not in SEVERITIES:
                raise ConfigurationError(
                    f"{source}: {code}.severity must be one of {SEVERITIES}, "
                    f"got {value!r}"
                )
            severity = str(value)
        elif key == "include":
            include = tuple(_string_list(value, f"{code}.include", source))
        else:
            options[key] = value
    return RuleConfig(
        enabled=enabled, severity=severity, include=include, options=options
    )


def _string_list(value: Any, key: str, source: str) -> List[str]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ConfigurationError(f"{source}: {key} must be a list of strings")
    return list(value)


# ---------------------------------------------------------------------------
# TOML parsing (stdlib on 3.11+, minimal subset parser otherwise)
# ---------------------------------------------------------------------------


def _parse_toml(text: str) -> Dict[str, Any]:
    if _tomllib is not None:
        try:
            return _tomllib.loads(text)
        except _tomllib.TOMLDecodeError as exc:
            raise _TomlParseError(str(exc)) from exc
    return _parse_toml_subset(text)  # pragma: no cover - pre-3.11 only


def _parse_toml_subset(text: str) -> Dict[str, Any]:
    """Parse the TOML subset the lint config needs (see module docs).

    Only ``[tool.repro.lint*]`` tables are materialized; every other
    section of the document is skipped wholesale, so pyproject
    constructs outside our schema (inline tables, arrays of tables)
    never have to parse.  Inside our own section, anything
    unparseable still raises.
    """
    document: Dict[str, Any] = {}
    table: Optional[Dict[str, Any]] = None
    for raw_line in _logical_lines(text):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            dotted = line[1:-1].strip().strip('"')
            if dotted != "tool.repro.lint" and not dotted.startswith(
                "tool.repro.lint."
            ):
                table = None
                continue
            table = document
            for part in dotted.split("."):
                nested = table.setdefault(part.strip().strip('"'), {})
                if not isinstance(nested, dict):
                    raise _TomlParseError(f"conflicting table {dotted!r}")
                table = nested
            continue
        if table is None:
            continue
        if "=" not in line:
            raise _TomlParseError(f"cannot parse line {raw_line!r}")
        key, _, value = line.partition("=")
        table[key.strip().strip('"')] = _parse_scalar(value.strip())
    return document


def _logical_lines(text: str) -> List[str]:
    """Comment-stripped lines, with multi-line arrays joined into one."""
    lines: List[str] = []
    pending = ""
    for raw_line in text.splitlines():
        stripped = _strip_comment(raw_line).strip()
        if pending:
            pending = f"{pending} {stripped}"
        elif _bracket_depth(stripped) > 0:
            pending = stripped
        else:
            lines.append(stripped)
            continue
        if _bracket_depth(pending) <= 0:
            lines.append(pending)
            pending = ""
    if pending:
        raise _TomlParseError(f"unterminated array: {pending!r}")
    return lines


def _bracket_depth(line: str) -> int:
    depth = 0
    in_string = ""
    for char in line:
        if in_string:
            if char == in_string:
                in_string = ""
        elif char in ('"', "'"):
            in_string = char
        elif char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
    return depth


def _strip_comment(line: str) -> str:
    in_string = ""
    for index, char in enumerate(line):
        if in_string:
            if char == in_string:
                in_string = ""
        elif char in ('"', "'"):
            in_string = char
        elif char == "#":
            return line[:index]
    return line


def _parse_scalar(token: str) -> Any:
    if token.startswith("[") and token.endswith("]"):
        inner = token[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(item.strip()) for item in _split_array(inner)]
    if token in ("true", "false"):
        return token == "true"
    if len(token) >= 2 and token[0] == token[-1] and token[0] in ('"', "'"):
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise _TomlParseError(f"cannot parse TOML value {token!r}") from None


def _split_array(inner: str) -> List[str]:
    items: List[str] = []
    current: List[str] = []
    in_string = ""
    for char in inner:
        if in_string:
            current.append(char)
            if char == in_string:
                in_string = ""
        elif char in ('"', "'"):
            in_string = char
            current.append(char)
        elif char == ",":
            items.append("".join(current))
            current = []
        else:
            current.append(char)
    if "".join(current).strip():
        items.append("".join(current))
    return items

"""The bench regression gate: fresh run vs committed baselines.

``repro bench --check`` reruns the benchmark suite and diffs each
fresh run against the *latest* run in the committed ``BENCH_*.json``
histories, under per-metric rules:

* ``expect_true``  — invariants (solutions identical, parallel
  matches serial, overhead within budget): the fresh run must hold
  them regardless of the baseline;
* ``abs_drop``     — quality floors (deadline hit rates, users
  sustained): fail when the fresh value drops more than ``tolerance``
  below the baseline;
* ``ratio_min``    — speedups: fail when the fresh value falls below
  ``baseline * (1 - tolerance)``.  Wall-clock ratios on a noisy
  shared box swing hard, so the tolerances are wide — the gate
  catches an optimisation being *lost* (10x regressions), not 10%
  jitter;
* ``abs_ceiling``  — costs (observability overhead %, missed
  reports): fail when the fresh value exceeds the baseline by more
  than ``tolerance``.

Row-shaped runs (allocator sizes, serve fleets, scale clusters) match
rows by their key column; quick runs produce a subset of rows and
only the intersection is compared.  A metric that is ``null`` on
either side (e.g. the untimed reference loop at large N) is skipped,
never failed — the gate judges what both runs measured.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.perf.bench import BENCH_KINDS

#: Comparison modes, see module docstring.
CHECK_MODES = ("expect_true", "abs_drop", "ratio_min", "abs_ceiling")


@dataclass(frozen=True)
class CheckRule:
    """One metric's comparison contract.

    ``rows``/``row_key`` point the rule at a list of per-size rows
    (``sizes``/``fleets``/``clusters``) matched on the key column;
    without them the rule reads the run's top level.  ``metric`` is a
    dotted path (``predictor.speedup``).

    Scale guards keep quick CI runs honest: ``scale_keys`` names
    run-level fields (population sizes, slot counts) that must match
    between baseline and current for the comparison to mean anything
    — a kernel speedup measured at 500 users says nothing about the
    10k-user baseline.  ``same_rows`` requires both runs to hold the
    *same* row-key set (a ``users_sustained`` from a 2-user quick
    fleet cannot be held to an 8-user baseline).  A guard mismatch
    *skips* the check (reported, never failed).
    """

    metric: str
    mode: str
    tolerance: float = 0.0
    rows: Optional[str] = None
    row_key: Optional[str] = None
    scale_keys: Tuple[str, ...] = ()
    same_rows: Optional[Tuple[str, str]] = None


#: The gate's rule book, by bench kind.
CHECK_RULES: Mapping[str, Tuple[CheckRule, ...]] = {
    "allocator": (
        CheckRule("solutions_identical", "expect_true",
                  rows="sizes", row_key="num_items"),
        CheckRule("speedup", "ratio_min", 0.8,
                  rows="sizes", row_key="num_items"),
        CheckRule("array_speedup", "ratio_min", 0.8,
                  rows="sizes", row_key="num_items"),
    ),
    "simulator": (
        CheckRule("parallel_matches_serial", "expect_true"),
        CheckRule("warm_slots_per_s", "ratio_min", 0.8,
                  scale_keys=("num_users",)),
    ),
    "kernel": (
        CheckRule("solutions_identical", "expect_true"),
        CheckRule("predictor.identical", "expect_true"),
        CheckRule("coverage.identical", "expect_true"),
        CheckRule("speedup", "ratio_min", 0.8,
                  scale_keys=("num_users",)),
        CheckRule("predictor.speedup", "ratio_min", 0.8,
                  scale_keys=("num_users",)),
        CheckRule("coverage.speedup", "ratio_min", 0.8,
                  scale_keys=("num_users",)),
    ),
    "serve": (
        CheckRule("users_sustained", "abs_drop", 4.0,
                  same_rows=("fleets", "users")),
        CheckRule("deadline_hit_rate", "abs_drop", 0.25,
                  rows="fleets", row_key="users"),
        CheckRule("missed_reports", "abs_ceiling", 50.0,
                  rows="fleets", row_key="users"),
        # The multiplexed run is the wire's capacity claim; judge it
        # only against a baseline driving the same virtual-client
        # population.
        CheckRule("protocol.mux.deadline_hit_rate", "abs_drop", 0.25,
                  scale_keys=("protocol.mux.clients",)),
        CheckRule("protocol.mux.missed_reports", "abs_ceiling", 200.0,
                  scale_keys=("protocol.mux.clients",)),
    ),
    "obs": (
        # The 5% budget verdict is only stable at full measurement
        # scale; a 1-repeat quick run answers with timing noise.
        CheckRule("within_budget", "expect_true",
                  scale_keys=("users", "slots", "repeats")),
        CheckRule("overhead_pct", "abs_ceiling", 30.0),
    ),
    "scale": (
        CheckRule("users_sustained", "abs_drop", 4.0,
                  same_rows=("clusters", "shards")),
        CheckRule("deadline_hit_rate", "abs_drop", 0.25,
                  rows="clusters", row_key="shards"),
        CheckRule("missed_reports", "abs_ceiling", 50.0,
                  rows="clusters", row_key="shards"),
    ),
}


@dataclass(frozen=True)
class CheckResult:
    """One metric comparison's outcome."""

    kind: str
    metric: str
    mode: str
    context: str
    passed: bool
    baseline: Optional[float]
    current: Optional[float]
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "metric": self.metric,
            "mode": self.mode,
            "context": self.context,
            "passed": self.passed,
            "baseline": self.baseline,
            "current": self.current,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CheckReport:
    """The gate's full verdict across every compared kind.

    ``skipped_checks`` names comparisons a scale guard disarmed (the
    runs measured different populations) — listed, never silently
    dropped, so a report that skipped everything reads as such.
    """

    results: Tuple[CheckResult, ...]
    skipped_kinds: Tuple[str, ...]
    skipped_checks: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def failures(self) -> Tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def to_dict(self) -> Dict[str, object]:
        return {
            "passed": self.passed,
            "checks": len(self.results),
            "failures": [r.to_dict() for r in self.failures],
            "results": [r.to_dict() for r in self.results],
            "skipped_kinds": list(self.skipped_kinds),
            "skipped_checks": list(self.skipped_checks),
        }


def latest_run(path: Path) -> Optional[Dict[str, object]]:
    """The newest run in one ``BENCH_*.json`` history (None if unusable)."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict):
        return None
    latest = document.get("latest")
    if isinstance(latest, dict):
        return latest
    runs = document.get("runs")
    if isinstance(runs, list) and runs and isinstance(runs[-1], dict):
        run: Dict[str, object] = runs[-1]
        return run
    return None


def _lookup(run: Mapping[str, object], dotted: str) -> object:
    node: object = run
    for part in dotted.split("."):
        if not isinstance(node, Mapping):
            return None
        node = node.get(part)
    return node


def _as_float(value: object) -> Optional[float]:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return None


def _compare(
    kind: str,
    rule: CheckRule,
    context: str,
    baseline_value: object,
    current_value: object,
) -> Optional[CheckResult]:
    """Apply one rule; None when the comparison has nothing to judge."""
    current = _as_float(current_value)
    if rule.mode == "expect_true":
        if current_value is None:
            return None
        passed = bool(current_value)
        detail = "holds" if passed else "expected true, got false"
        return CheckResult(
            kind, rule.metric, rule.mode, context, passed,
            _as_float(baseline_value), current, detail,
        )
    baseline = _as_float(baseline_value)
    if baseline is None or current is None:
        return None
    if rule.mode == "abs_drop":
        floor = baseline - rule.tolerance
        passed = current >= floor
        detail = f"{current:.4g} vs floor {floor:.4g} (baseline {baseline:.4g})"
    elif rule.mode == "ratio_min":
        floor = baseline * (1.0 - rule.tolerance)
        passed = current >= floor
        detail = f"{current:.4g} vs floor {floor:.4g} (baseline {baseline:.4g})"
    elif rule.mode == "abs_ceiling":
        ceiling = baseline + rule.tolerance
        passed = current <= ceiling
        detail = (
            f"{current:.4g} vs ceiling {ceiling:.4g} (baseline {baseline:.4g})"
        )
    else:
        raise ConfigurationError(
            f"unknown check mode {rule.mode!r}; expected one of {CHECK_MODES}"
        )
    return CheckResult(
        kind, rule.metric, rule.mode, context, passed, baseline, current,
        detail,
    )


def _row_index(
    run: Mapping[str, object], rows: str, row_key: str
) -> Dict[float, Mapping[str, object]]:
    index: Dict[float, Mapping[str, object]] = {}
    entries = run.get(rows)
    if not isinstance(entries, list):
        return index
    for entry in entries:
        if not isinstance(entry, Mapping):
            continue
        key = _as_float(entry.get(row_key))
        if key is not None:
            index[key] = entry
    return index


def _guard_skips(
    kind: str,
    rule: CheckRule,
    baseline: Mapping[str, object],
    current: Mapping[str, object],
) -> Optional[str]:
    """The skip reason when a scale guard disarms this rule, else None."""
    for key in rule.scale_keys:
        if _lookup(baseline, key) != _lookup(current, key):
            return (
                f"{kind}.{rule.metric}: {key} differs "
                f"({_lookup(baseline, key)!r} vs {_lookup(current, key)!r})"
            )
    if rule.same_rows is not None:
        rows, row_key = rule.same_rows
        baseline_keys = set(_row_index(baseline, rows, row_key))
        current_keys = set(_row_index(current, rows, row_key))
        if baseline_keys != current_keys:
            return (
                f"{kind}.{rule.metric}: {rows} cover different "
                f"{row_key} sets"
            )
    return None


def check_run(
    kind: str,
    baseline: Mapping[str, object],
    current: Mapping[str, object],
) -> Tuple[List[CheckResult], List[str]]:
    """Diff one fresh run against its baseline under the rule book.

    Returns ``(results, skipped)`` — ``skipped`` holds the names of
    comparisons a scale guard disarmed.
    """
    results: List[CheckResult] = []
    skipped: List[str] = []
    for rule in CHECK_RULES.get(kind, ()):
        reason = _guard_skips(kind, rule, baseline, current)
        if reason is not None:
            skipped.append(reason)
            continue
        if rule.rows is None or rule.row_key is None:
            outcome = _compare(
                kind, rule, "-",
                _lookup(baseline, rule.metric), _lookup(current, rule.metric),
            )
            if outcome is not None:
                results.append(outcome)
            continue
        baseline_rows = _row_index(baseline, rule.rows, rule.row_key)
        current_rows = _row_index(current, rule.rows, rule.row_key)
        for key in sorted(set(baseline_rows) & set(current_rows)):
            outcome = _compare(
                kind, rule, f"{rule.row_key}={key:g}",
                _lookup(baseline_rows[key], rule.metric),
                _lookup(current_rows[key], rule.metric),
            )
            if outcome is not None:
                results.append(outcome)
    return results, skipped


def check_bench(
    runs: Mapping[str, Mapping[str, object]],
    baseline_dir: Path,
) -> CheckReport:
    """Gate a set of fresh runs against the baselines in one directory.

    ``runs`` maps bench kind to the freshly produced run dict.  A kind
    with no readable baseline history is *skipped* (reported, never
    failed): a brand-new benchmark cannot regress.
    """
    results: List[CheckResult] = []
    skipped_kinds: List[str] = []
    skipped_checks: List[str] = []
    for kind in sorted(runs):
        if kind not in BENCH_KINDS:
            raise ConfigurationError(
                f"unknown bench kind {kind!r}; expected some of "
                f"{tuple(BENCH_KINDS)}"
            )
        baseline = latest_run(baseline_dir / BENCH_KINDS[kind].file)
        if baseline is None:
            skipped_kinds.append(kind)
            continue
        kind_results, kind_skipped = check_run(kind, baseline, runs[kind])
        results.extend(kind_results)
        skipped_checks.extend(kind_skipped)
    return CheckReport(
        results=tuple(results),
        skipped_kinds=tuple(skipped_kinds),
        skipped_checks=tuple(skipped_checks),
    )


def format_report(report: CheckReport) -> List[str]:
    """Human-readable gate verdict for the bench CLI."""
    lines: List[str] = []
    for result in report.results:
        state = "ok  " if result.passed else "FAIL"
        lines.append(
            f"{state}  {result.kind}.{result.metric} "
            f"[{result.context}] ({result.mode}): {result.detail}"
        )
    for kind in report.skipped_kinds:
        lines.append(f"skip  {kind}: no baseline history")
    for reason in report.skipped_checks:
        lines.append(f"skip  {reason}")
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(
        f"bench check: {verdict} "
        f"({len(report.results)} check(s), "
        f"{len(report.failures)} failure(s))"
    )
    if not report.passed:
        names = ", ".join(
            f"{r.kind}.{r.metric}[{r.context}]" for r in report.failures
        )
        lines.append(f"regressed: {names}")
    return lines


__all__ = [
    "CHECK_MODES",
    "CHECK_RULES",
    "CheckReport",
    "CheckResult",
    "CheckRule",
    "check_bench",
    "check_run",
    "format_report",
    "latest_run",
]

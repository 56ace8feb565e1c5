"""Domain-aware static analysis for the repro codebase.

The paper's reproduction rests on three machine-checkable contracts:
the Mbps-equivalent unit convention of :mod:`repro.units`, seeded-RNG
determinism (the bit-identical fast-path guarantees of Algorithm 1 /
Theorem 1), and the :class:`~repro.errors.ReproError` exception
discipline.  This package enforces them with an AST rule engine:

* :mod:`repro.lint.rules` — the RL001-RL011 rule catalogue;
* :mod:`repro.lint.project` — the whole-project model (import
  bindings, call index) behind the flow-aware rules RL008-RL011;
* :mod:`repro.lint.baseline` — committed finding snapshots for
  ratchet-style gating;
* :mod:`repro.lint.engine` — file discovery, dispatch, suppression;
* :mod:`repro.lint.config` — ``[tool.repro.lint]`` in pyproject.toml;
* :mod:`repro.lint.reporters` — text/JSON output;
* :mod:`repro.lint.cli` — the ``python -m repro lint`` command.

See ``docs/static-analysis.md`` for the rule catalogue and rationale.
"""

from __future__ import annotations

from repro.lint.config import (
    LintConfig,
    RuleConfig,
    default_config,
    load_config,
    merge_config,
)
from repro.lint.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.lint.engine import discover_files, lint_source, run_lint
from repro.lint.findings import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    LintReport,
    ModuleContext,
)
from repro.lint.project import ProjectModel, build_project_model
from repro.lint.registry import RULE_REGISTRY, Rule, all_rules, register_rule
from repro.lint.reporters import (
    JSON_REPORT_VERSION,
    render_json,
    render_stats,
    render_text,
)

__all__ = [
    "Finding",
    "ProjectModel",
    "JSON_REPORT_VERSION",
    "LintConfig",
    "LintReport",
    "ModuleContext",
    "RULE_REGISTRY",
    "Rule",
    "RuleConfig",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "all_rules",
    "apply_baseline",
    "build_project_model",
    "default_config",
    "discover_files",
    "fingerprint",
    "lint_source",
    "load_baseline",
    "load_config",
    "merge_config",
    "register_rule",
    "render_json",
    "render_stats",
    "render_text",
    "run_lint",
    "write_baseline",
]

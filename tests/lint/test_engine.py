"""Engine behaviour: discovery, parse errors, aggregation, self-check."""

import pytest

from repro.errors import ConfigurationError
from repro.lint import default_config, run_lint
from repro.lint.engine import PARSE_ERROR_RULE, discover_files

from tests.lint.conftest import REPO_ROOT

RL005_SNIPPET = "def f(b: list = []) -> list:\n    return b\n"
CLEAN_SNIPPET = "X = 1\n"


class TestDiscovery:
    def test_directory_expansion_sorted_and_filtered(self, tmp_path):
        (tmp_path / "b.py").write_text(CLEAN_SNIPPET)
        (tmp_path / "a.py").write_text(CLEAN_SNIPPET)
        (tmp_path / "notes.txt").write_text("not python")
        sub = tmp_path / "__pycache__"
        sub.mkdir()
        (sub / "c.py").write_text(CLEAN_SNIPPET)
        files = discover_files([tmp_path], default_config().exclude)
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_file_and_parent_dir_deduplicated(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text(CLEAN_SNIPPET)
        files = discover_files([target, tmp_path], default_config().exclude)
        assert len(files) == 1

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            discover_files([tmp_path / "ghost"], ())


class TestRunLint:
    def test_findings_aggregated_with_counts(self, tmp_path):
        (tmp_path / "bad.py").write_text(RL005_SNIPPET)
        (tmp_path / "good.py").write_text(CLEAN_SNIPPET)
        report = run_lint([tmp_path])
        assert report.files_scanned == 2
        assert report.error_count == 1
        assert report.rule_counts["RL005"] == 1
        assert report.rule_counts["RL001"] == 0
        assert report.has_errors()

    def test_parse_error_becomes_rl000_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = run_lint([tmp_path])
        assert report.error_count == 1
        assert report.findings[0].rule == PARSE_ERROR_RULE
        assert "does not parse" in report.findings[0].message

    def test_deterministic_order(self, tmp_path):
        (tmp_path / "z.py").write_text(RL005_SNIPPET)
        (tmp_path / "a.py").write_text(RL005_SNIPPET)
        report = run_lint([tmp_path])
        paths = [f.path for f in report.findings]
        assert paths == sorted(paths)


class TestRepoIsClean:
    """The acceptance gate itself: the tree must stay at zero findings."""

    def test_src_and_tests_have_no_findings(self):
        report = run_lint([REPO_ROOT / "src", REPO_ROOT / "tests"])
        assert report.files_scanned > 100
        findings = [f.location() + " " + f.rule for f in report.findings]
        assert findings == []

    def test_kernel_package_needs_no_suppressions(self):
        # The array kernel is in the zero-suppression set: not a single
        # inline `repro-lint: disable` directive, ever — its numeric
        # code must satisfy every rule on merit.
        report = run_lint([REPO_ROOT / "src" / "repro" / "kernel"])
        assert report.files_scanned >= 5
        assert [f.location() for f in report.findings] == []
        assert report.suppressed == 0

    def test_shard_package_needs_no_suppressions(self):
        # The shard subsystem joined the zero-suppression set at
        # birth: config, coordinator, router, handoff codec and
        # supervisor all satisfy every rule with no inline disables.
        report = run_lint([REPO_ROOT / "src" / "repro" / "shard"])
        assert report.files_scanned >= 6
        assert [f.location() for f in report.findings] == []
        assert report.suppressed == 0

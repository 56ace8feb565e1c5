"""The bench regression gate: rule modes, guards, and the exit path."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.perf.bench import BENCH_KINDS
from repro.perf.regression import (
    CHECK_MODES,
    CHECK_RULES,
    CheckRule,
    check_bench,
    check_run,
    format_report,
    latest_run,
)


def _serve_run(hit_rate=0.99, sustained=8, missed=0, users=(2, 4, 8)):
    return {
        "kind": "serve",
        "users_sustained": sustained,
        "fleets": [
            {
                "users": count,
                "deadline_hit_rate": hit_rate,
                "missed_reports": missed,
            }
            for count in users
        ],
    }


def _kernel_run(num_users=10000, speedup=70.0):
    return {
        "kind": "kernel",
        "num_users": num_users,
        "solutions_identical": True,
        "speedup": speedup,
        "predictor": {"identical": True, "speedup": speedup},
        "coverage": {"identical": True, "speedup": speedup},
    }


def _write_history(path, run):
    path.write_text(
        json.dumps({"latest": run, "runs": [run]}), encoding="utf-8"
    )
    return path


class TestRuleBook:
    def test_every_rule_uses_a_known_mode(self):
        for kind, rules in CHECK_RULES.items():
            assert kind in BENCH_KINDS
            for rule in rules:
                assert rule.mode in CHECK_MODES

    def test_every_kind_has_a_history_file(self):
        """The table's kinds, the rule book and the history files are
        one set: ``BENCH_<kind>.json`` for every kind, each file once."""
        assert set(CHECK_RULES) == set(BENCH_KINDS)
        files = [kind.file for kind in BENCH_KINDS.values()]
        assert files == [f"BENCH_{name}.json" for name in BENCH_KINDS]
        assert len(set(files)) == len(BENCH_KINDS) == 6


class TestLatestRun:
    def test_prefers_latest_key(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps(
            {"latest": {"kind": "a"}, "runs": [{"kind": "b"}]}
        ))
        assert latest_run(path) == {"kind": "a"}

    def test_falls_back_to_last_run(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps({"runs": [{"kind": "a"}, {"kind": "b"}]}))
        assert latest_run(path) == {"kind": "b"}

    def test_unusable_histories_are_none(self, tmp_path):
        assert latest_run(tmp_path / "absent.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert latest_run(bad) is None
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        assert latest_run(empty) is None


class TestCheckModes:
    def test_expect_true_judges_current_only(self):
        results, _ = check_run("kernel", _kernel_run(), _kernel_run())
        invariants = [r for r in results if r.mode == "expect_true"]
        assert len(invariants) == 3
        assert all(r.passed for r in invariants)

        broken = _kernel_run()
        broken["solutions_identical"] = False
        results, _ = check_run("kernel", _kernel_run(), broken)
        failed = [r for r in results if not r.passed]
        assert [r.metric for r in failed] == ["solutions_identical"]

    def test_abs_drop_allows_tolerance_then_fails(self):
        baseline = _serve_run(hit_rate=0.99)
        within = _serve_run(hit_rate=0.80)   # drop 0.19 < tol 0.25
        results, _ = check_run("serve", baseline, within)
        assert all(r.passed for r in results)

        beyond = _serve_run(hit_rate=0.50)   # drop 0.49 > tol 0.25
        results, _ = check_run("serve", baseline, beyond)
        failed = [r for r in results if not r.passed]
        assert {r.metric for r in failed} == {"deadline_hit_rate"}
        assert len(failed) == 3  # one per fleet row

    def test_ratio_min_catches_lost_speedup_not_jitter(self):
        baseline = _kernel_run(speedup=70.0)
        jitter = _kernel_run(speedup=60.0)   # -14%: inside the 0.8 band
        results, _ = check_run("kernel", baseline, jitter)
        assert all(r.passed for r in results)

        lost = _kernel_run(speedup=1.1)      # optimisation gone
        results, _ = check_run("kernel", baseline, lost)
        failed = {r.metric for r in results if not r.passed}
        assert "speedup" in failed

    def test_abs_ceiling_bounds_costs(self):
        baseline = _serve_run(missed=0)
        noisy = _serve_run(missed=40)        # under the +50 ceiling
        results, _ = check_run("serve", baseline, noisy)
        assert all(r.passed for r in results)

        flood = _serve_run(missed=500)
        results, _ = check_run("serve", baseline, flood)
        failed = {r.metric for r in results if not r.passed}
        assert failed == {"missed_reports"}

    def test_unknown_mode_rejected(self):
        from repro.perf.regression import _compare

        with pytest.raises(ConfigurationError):
            _compare("serve", CheckRule("x", "fuzzy"), "-", 1.0, 1.0)


class TestRowMatching:
    def test_quick_subset_compares_intersection_only(self):
        baseline = _serve_run(users=(2, 4, 8))
        quick = _serve_run(users=(2,))
        results, skipped = check_run("serve", baseline, quick)
        contexts = {r.context for r in results if r.metric == "deadline_hit_rate"}
        assert contexts == {"users=2"}
        # users_sustained is guarded by same_rows: a 2-user fleet
        # cannot be held to an 8-user baseline.
        assert not any(r.metric == "users_sustained" for r in results)
        assert any("users_sustained" in reason for reason in skipped)

    def test_none_values_skip_not_fail(self):
        baseline = _serve_run()
        current = _serve_run()
        for fleet in current["fleets"]:
            fleet["deadline_hit_rate"] = None
        results, _ = check_run("serve", baseline, current)
        assert not any(r.metric == "deadline_hit_rate" for r in results)
        assert all(r.passed for r in results)


class TestScaleGuards:
    def test_mismatched_population_skips_speedup(self):
        baseline = _kernel_run(num_users=10000, speedup=70.0)
        quick = _kernel_run(num_users=500, speedup=4.0)
        results, skipped = check_run("kernel", baseline, quick)
        # The invariants still run; no speedup comparison survives.
        assert {r.mode for r in results} == {"expect_true"}
        assert all(r.passed for r in results)
        assert any("num_users differs" in reason for reason in skipped)

    def test_matched_population_arms_the_rule(self):
        baseline = _kernel_run(num_users=500, speedup=4.0)
        current = _kernel_run(num_users=500, speedup=4.1)
        results, skipped = check_run("kernel", baseline, current)
        assert any(r.metric == "predictor.speedup" for r in results)
        assert skipped == []


class TestCheckBench:
    def test_missing_baseline_is_skipped_kind(self, tmp_path):
        report = check_bench({"serve": _serve_run()}, tmp_path)
        assert report.passed
        assert report.skipped_kinds == ("serve",)
        assert report.results == ()

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            check_bench({"frobnicator": {}}, tmp_path)

    def test_injected_regression_fails_naming_the_metric(self, tmp_path):
        """The acceptance path: a synthetic regression must be caught
        and the report must name the offending metric."""
        _write_history(tmp_path / BENCH_KINDS["serve"].file, _serve_run())
        _write_history(tmp_path / BENCH_KINDS["kernel"].file, _kernel_run())

        healthy = check_bench(
            {"serve": _serve_run(), "kernel": _kernel_run()}, tmp_path
        )
        assert healthy.passed

        regressed = check_bench(
            {
                "serve": _serve_run(hit_rate=0.40),  # injected drop
                "kernel": _kernel_run(),
            },
            tmp_path,
        )
        assert not regressed.passed
        assert all(
            f.metric == "deadline_hit_rate" for f in regressed.failures
        )
        lines = format_report(regressed)
        assert any(line.startswith("FAIL") for line in lines)
        assert any("bench check: FAIL" in line for line in lines)
        assert any(
            "regressed:" in line and "serve.deadline_hit_rate" in line
            for line in lines
        )

    def test_report_round_trips_to_dict(self, tmp_path):
        _write_history(tmp_path / BENCH_KINDS["serve"].file, _serve_run())
        report = check_bench({"serve": _serve_run(hit_rate=0.1)}, tmp_path)
        payload = report.to_dict()
        assert payload["passed"] is False
        assert payload["checks"] == len(report.results)
        assert payload["failures"][0]["metric"] == "deadline_hit_rate"


class TestBenchCliGate:
    def test_check_exit_codes_via_main(self, tmp_path, capsys):
        """``repro bench --check`` exits 1 on a regressed baseline."""
        from repro.cli import main

        # A baseline claiming an impossible hit rate forces a FAIL
        # without needing a slow full bench run.
        out_dir = tmp_path / "out"
        baseline_dir = tmp_path / "baselines"
        baseline_dir.mkdir()
        _write_history(
            baseline_dir / BENCH_KINDS["serve"].file,
            _serve_run(hit_rate=2.0, users=(2,), sustained=2),
        )

        code = main([
            "bench", "--quick", "--kind", "serve",
            "--out", str(out_dir),
            "--check", "--baseline-dir", str(baseline_dir),
            "--check-report", str(tmp_path / "report.json"),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "bench check: FAIL" in out
        assert "serve.deadline_hit_rate" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is False

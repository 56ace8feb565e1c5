"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sim_defaults(self):
        args = build_parser().parse_args(["sim"])
        assert args.users == 5
        assert args.command == "sim"

    def test_system_setup_choices(self):
        args = build_parser().parse_args(["system", "--setup", "2"])
        assert args.setup == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["system", "--setup", "3"])

    def test_global_seed(self):
        args = build_parser().parse_args(["--seed", "7", "fig1"])
        assert args.seed == 7


class TestCommands:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1a" in out
        assert "Fig. 1b" in out
        assert "mean RTT" in out

    def test_theorem1(self, capsys):
        assert main(["theorem1", "--instances", "25"]) == 0
        out = capsys.readouterr().out
        assert "fraction optimal" in out

    def test_sim_small(self, capsys):
        assert main(["sim", "--users", "2", "--slots", "60",
                     "--episodes", "1"]) == 0
        out = capsys.readouterr().out
        assert "ours" in out
        assert "optimal" in out
        assert "QoE CDFs" in out

    def test_sim_no_optimal(self, capsys):
        assert main(["sim", "--users", "2", "--slots", "60",
                     "--episodes", "1", "--no-optimal"]) == 0
        out = capsys.readouterr().out
        assert "optimal" not in out.split("QoE CDFs")[0].splitlines()[3]

    def test_system_small(self, capsys):
        assert main(["system", "--setup", "1", "--slots", "120",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "fps" in out
        assert "Average QoE" in out


class TestSweepCommand:
    def test_sweep_alpha(self, capsys):
        assert main(["sweep", "alpha", "0.02,0.5", "--users", "2",
                     "--slots", "60"]) == 0
        out = capsys.readouterr().out
        assert "sweep over alpha" in out
        assert "variance" in out

    def test_sweep_config_field(self, capsys):
        assert main(["sweep", "margin_deg", "5,25", "--users", "2",
                     "--slots", "60"]) == 0
        out = capsys.readouterr().out
        assert "margin_deg" in out


class TestLintCommand:
    """Exit-code contract: 0 clean, 1 findings, 2 usage error."""

    CLEAN = "X = 1\n"
    DIRTY = "def f(b: list = []) -> list:\n    return b\n"

    def test_clean_path_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text(self.CLEAN)
        assert main(["lint", str(target)]) == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text(self.DIRTY)
        assert main(["lint", str(target)]) == 1
        out = capsys.readouterr().out
        assert "RL005" in out
        assert "1 error(s)" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "ghost.py")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_exits_two(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text(self.CLEAN)
        config = tmp_path / "pyproject.toml"
        config.write_text(
            "[tool.repro.lint.rules.RL999]\nenabled = false\n"
        )
        assert main(
            ["lint", str(target), "--config", str(config)]
        ) == 2
        assert "RL999" in capsys.readouterr().err

    def test_path_filtering(self, tmp_path, capsys):
        clean_dir = tmp_path / "clean"
        clean_dir.mkdir()
        (clean_dir / "a.py").write_text(self.CLEAN)
        (tmp_path / "dirty.py").write_text(self.DIRTY)
        assert main(["lint", str(clean_dir)]) == 0
        capsys.readouterr()
        assert main(["lint", str(tmp_path)]) == 1

    def test_json_round_trip(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text(self.DIRTY)
        assert main(["lint", str(target), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["errors"] == 1
        assert document["findings"][0]["rule"] == "RL005"

    def test_stats_flag(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text(self.CLEAN)
        assert main(["lint", str(target), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "rule hit counts:" in out
        assert "files scanned: 1" in out

    def test_repo_default_paths_are_clean(self, capsys):
        """`python -m repro lint` over src+tests must stay at zero."""
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["lint", "--format", "yaml"])
        assert excinfo.value.code == 2


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 0
        assert args.users == 8
        assert args.expect == 1
        assert args.slots == 300
        assert args.lockstep is False
        assert args.slot_ms is None
        assert args.require_hit_rate == 0.0

    def test_loadgen_requires_port(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["loadgen"])
        assert excinfo.value.code == 2

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen", "--port", "9000"])
        assert args.clients == 1
        assert args.latency_ms == 0.0
        assert args.slow_clients == 0
        assert args.churn_clients == 0
        assert args.mux_connections == 4
        assert not hasattr(args, "mux")

    def test_bench_flags(self):
        args = build_parser().parse_args(["bench"])
        assert sorted(k for k in vars(args) if k not in ("command", "seed")) == [
            "baseline_dir", "check", "check_report", "kind", "out", "quick",
        ]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--serve-users", "2,4"])

    def test_serve_has_no_kernel_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--kernel"])


class TestBenchProfiles:
    """Both profiles of every bench kind, pinned.

    ``full`` must reproduce each committed ``BENCH_*.json`` latest run
    and ``quick`` the CI scale: a drifted profile would silently
    disarm the gate's scale guards (``scale_keys``, ``same_rows``).
    """

    PROFILES = {
        "allocator": (
            {"sizes": (5, 30, 100, 1000, 10000), "repeats": 3},
            {"sizes": (5, 30, 100), "repeats": 1},
        ),
        "simulator": (
            {"num_users": 5, "num_slots": 600, "num_episodes": 4,
             "max_workers": 4},
            {"num_users": 5, "num_slots": 120, "num_episodes": 2,
             "max_workers": 2},
        ),
        "kernel": (
            {"num_users": 10000, "num_levels": 6, "num_slots": 3,
             "repeats": 3},
            {"num_users": 500, "num_levels": 6, "num_slots": 2,
             "repeats": 1},
        ),
        "serve": (
            {"user_counts": (2, 4, 8), "slots": 120, "deadline_target": 0.99,
             "mux_clients": 128, "mux_connections": 4},
            {"user_counts": (2,), "slots": 40, "deadline_target": 0.99,
             "mux_clients": 16, "mux_connections": 2},
        ),
        "obs": (
            {"users": 8, "slots": 120, "repeats": 3},
            {"users": 2, "slots": 40, "repeats": 1},
        ),
        "scale": (
            {"shard_counts": (1, 2, 4), "users_per_shard": 2, "slots": 80,
             "deadline_target": 0.99},
            {"shard_counts": (1, 2), "users_per_shard": 2, "slots": 30,
             "deadline_target": 0.99},
        ),
    }

    def test_profiles_are_pinned(self):
        from repro.perf.bench import BENCH_KINDS

        assert list(BENCH_KINDS) == list(self.PROFILES)
        for name, (full, quick) in self.PROFILES.items():
            kind = BENCH_KINDS[name]
            assert dict(kind.params(quick=False)) == full, name
            assert dict(kind.params(quick=True)) == quick, name

    def test_full_profiles_match_committed_baselines(self):
        """The scale keys each guard compares equal the committed runs'."""
        import json
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]

        def latest(name):
            path = root / f"BENCH_{name}.json"
            return json.loads(path.read_text(encoding="utf-8"))["latest"]

        allocator = latest("allocator")
        full = self.PROFILES["allocator"][0]
        assert [r["num_items"] for r in allocator["sizes"]] == list(full["sizes"])
        assert allocator["repeats"] == full["repeats"]
        simulator = latest("simulator")
        for key, value in self.PROFILES["simulator"][0].items():
            assert simulator[key] == value, key
        kernel = latest("kernel")
        for key, value in self.PROFILES["kernel"][0].items():
            assert kernel[key] == value, key
        serve = latest("serve")
        full = self.PROFILES["serve"][0]
        assert [r["users"] for r in serve["fleets"]] == list(full["user_counts"])
        assert serve["slots"] == full["slots"]
        assert serve["protocol"]["mux"]["clients"] == full["mux_clients"]
        assert serve["protocol"]["mux"]["connections"] == full["mux_connections"]
        obs = latest("obs")
        for key, value in self.PROFILES["obs"][0].items():
            assert obs[key] == value, key
        scale = latest("scale")
        full = self.PROFILES["scale"][0]
        assert [r["shards"] for r in scale["clusters"]] == list(full["shard_counts"])
        assert scale["users_per_shard"] == full["users_per_shard"]
        assert scale["slots"] == full["slots"]


class TestServeCommands:
    """Exit-code contract for `serve` and `loadgen` over loopback."""

    def test_serve_bad_config_exits_one(self, capsys):
        # expect more clients than seats is a configuration error.
        assert main(["serve", "--users", "1", "--expect", "2"]) == 1
        assert "serve failed" in capsys.readouterr().err

    def test_loadgen_unreachable_server_exits_one(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["loadgen", "--port", str(port), "--clients", "1"]) == 1
        assert "cannot reach server" in capsys.readouterr().err

    def test_serve_and_loadgen_over_loopback(self, capsys):
        """Two-process smoke: `repro serve` + in-process loadgen."""
        import subprocess
        import sys

        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--users", "2", "--expect", "2",
                "--slots", "21", "--lockstep",
                "--require-hit-rate", "0.05",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert banner.startswith("serving on 127.0.0.1:"), banner
            port = int(banner.rsplit(":", 1)[1])
            assert main(["loadgen", "--port", str(port), "--clients", "2"]) == 0
            out, err = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, err
        assert "run complete: 20 slots" in out
        assert "deadline hit rate" in out
        client_out = capsys.readouterr().out
        assert "fleet of 2 client(s)" in client_out
        assert "complete" in client_out


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "fig1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "Fig. 1a" in result.stdout

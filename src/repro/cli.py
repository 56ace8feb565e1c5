"""Command-line interface: ``python -m repro <command>``.

Every experiment in the paper can be reproduced from the shell without
writing code:

* ``python -m repro fig1``   — the Fig. 1a/1b convexity measurements;
* ``python -m repro sim``    — the Fig. 2/3 trace-driven comparison;
* ``python -m repro system`` — the Fig. 7/8 testbed emulation;
* ``python -m repro theorem1`` — the approximation-ratio study;
* ``python -m repro lint``   — the domain-aware static analysis gate;
* ``python -m repro obs``    — trace-file and ``/metrics`` tooling;
* ``python -m repro faults`` — fault-script generation and inspection.

Each command prints the figure's rows as a text table (and an ASCII
CDF/bar sketch where that helps).  Scale flags (--slots, --episodes,
--repeats, --users) trade fidelity for runtime; defaults finish in
tens of seconds on a laptop.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.ascii import ascii_bars, ascii_cdf
from repro.analysis.report import comparison_table, format_table
from repro.content.rate import RateModel
from repro.core.allocation import DensityValueGreedyAllocator
from repro.core.baselines.firefly import FireflyAllocator
from repro.core.baselines.pavq import PavqAllocator
from repro.core.offline import OfflineOptimalAllocator
from repro.faults.cli import add_faults_arguments, run_faults_command
from repro.knapsack.exact import solve_exact
from repro.knapsack.greedy import combined_greedy
from repro.lint.cli import add_lint_arguments, run_lint_command
from repro.obs.cli import add_obs_arguments, run_obs_command
from repro.simulation.delaymodel import mean_rtt_curve
from repro.simulation.simulator import SimulationConfig, TraceSimulator
from repro.system.experiment import (
    SystemExperiment,
    setup1_config,
    setup2_config,
)


def _cmd_fig1(args: argparse.Namespace) -> int:
    model = RateModel(seed=args.seed)
    print("Fig. 1a — tile-set size vs quality level (two contents):\n")
    rows = [
        [level, model.curve(3).size(level), model.curve(17).size(level)]
        for level in range(1, 7)
    ]
    print(format_table(["level", "content A (Mbps)", "content B (Mbps)"], rows))

    print("\nFig. 1b — mean RTT vs sending rate (15 Mbps cap):\n")
    rates = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 13.5]
    curve = mean_rtt_curve(rates, capacity_mbps=15.0, num_samples=20_000,
                           seed=args.seed)
    print(format_table(["rate (Mbps)", "mean RTT (ms)"], list(map(list, zip(rates, curve)))))
    return 0


def _allocators(include_optimal: bool) -> Dict[str, object]:
    allocators: Dict[str, object] = {
        "ours": DensityValueGreedyAllocator(),
        "pavq": PavqAllocator(),
        "firefly": FireflyAllocator(),
    }
    if include_optimal:
        allocators["optimal"] = OfflineOptimalAllocator()
    return allocators


def _cmd_sim(args: argparse.Namespace) -> int:
    config = SimulationConfig(
        num_users=args.users, duration_slots=args.slots, seed=args.seed
    )
    simulator = TraceSimulator(config)
    include_optimal = args.users <= 8 and not args.no_optimal
    print(
        f"Fig. {'2' if args.users <= 8 else '3'}-style simulation: "
        f"{args.users} users, {args.slots} slots, {args.episodes} episode(s)\n"
    )
    comparison = simulator.compare(
        _allocators(include_optimal), num_episodes=args.episodes
    )
    metrics = ("qoe", "quality", "delay", "variance")
    table = {name: res.means(metrics) for name, res in comparison.items()}
    print(comparison_table(table, metrics, reference="firefly"))
    print("\nQoE CDFs:\n")
    print(ascii_cdf({name: res.cdf("qoe") for name, res in comparison.items()}))
    return 0


def _cmd_system(args: argparse.Namespace) -> int:
    make = setup1_config if args.setup == 1 else setup2_config
    config = make(duration_slots=args.slots, seed=args.seed)
    experiment = SystemExperiment(config)
    print(
        f"Fig. {'7' if args.setup == 1 else '8'}-style emulation: setup "
        f"{args.setup} ({config.num_users} users, {config.num_routers} "
        f"router(s)), {args.repeats} repeat(s)\n"
    )
    comparison = experiment.compare(_allocators(False), repeats=args.repeats)
    metrics = ("qoe", "quality", "delay", "variance")
    table = {}
    for name, res in comparison.items():
        row = res.means(metrics)
        row["fps"] = res.mean_fps()
        table[name] = row
    print(comparison_table(table, metrics + ("fps",)))
    print("\nAverage QoE:\n")
    print(ascii_bars({name: res.mean("qoe") for name, res in comparison.items()}))
    return 0


def _cmd_theorem1(args: argparse.Namespace) -> int:
    from repro.knapsack.random_instances import random_instance

    rng = np.random.default_rng(args.seed)
    ratios: List[float] = []
    for _ in range(args.instances):
        problem = random_instance(
            rng,
            num_items=int(rng.integers(2, 6)),
            num_options=int(rng.integers(3, 7)),
            tightness=float(rng.uniform(0.05, 0.95)),
        )
        base = problem.base_solution().value
        gain_greedy = combined_greedy(problem).value - base
        gain_opt = solve_exact(problem).value - base
        if gain_opt > 1e-12:
            ratios.append(gain_greedy / gain_opt)
    arr = np.array(ratios)
    print("Theorem 1 — combined greedy vs exact optimum (gain ratio):\n")
    print(
        format_table(
            ["statistic", "value"],
            [
                ["instances", float(len(arr))],
                ["min", float(arr.min())],
                ["median", float(np.median(arr))],
                ["mean", float(arr.mean())],
                ["fraction optimal", float((arr > 1 - 1e-9).mean())],
            ],
        )
    )
    return 0 if (arr >= 0.5 - 1e-9).all() else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.simulation.sweep import run_sweep, sweep_table

    base = SimulationConfig(
        num_users=args.users, duration_slots=args.slots, seed=args.seed
    )
    values = [float(v) for v in args.values.split(",")]
    points = run_sweep(
        base,
        DensityValueGreedyAllocator,
        {args.field: values},
        num_episodes=args.episodes,
    )
    metrics = ("qoe", "quality", "delay", "variance")
    print(f"sweep over {args.field} = {values}:\n")
    print(
        format_table(
            [args.field] + list(metrics),
            sweep_table(points, metrics=metrics),
        )
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.errors import ConfigurationError
    from repro.perf.bench import BENCH_KINDS, persist_run
    from repro.perf.regression import check_bench, format_report

    kinds = (
        list(BENCH_KINDS)
        if args.kind is None
        else [k.strip() for k in args.kind.split(",") if k.strip()]
    )
    for kind in kinds:
        if kind not in BENCH_KINDS:
            raise ConfigurationError(
                f"unknown bench kind {kind!r}; expected some of "
                f"{tuple(BENCH_KINDS)}"
            )

    out = Path(args.out)
    written = []
    runs: Dict[str, Dict] = {}
    for name, kind in BENCH_KINDS.items():
        if name not in kinds:
            continue
        params = kind.params(args.quick)
        shown = ", ".join(f"{key}={value}" for key, value in params.items())
        print(f"\n{name} benchmark ({shown}):\n")
        run = kind.run(seed=args.seed, **params)
        print(format_table(*kind.table(run)))
        if "users_sustained" in run:
            print(
                f"\nusers sustained at >={run['deadline_target']:.0%} "
                f"hit rate: {run['users_sustained']}"
            )
        persist_run(run, out / kind.file)
        written.append(out / kind.file)
        runs[name] = run

    if written:
        print("\nwrote " + ", ".join(str(p) for p in written))

    if args.check:
        baseline_dir = (
            Path(args.baseline_dir) if args.baseline_dir is not None else out
        )
        report = check_bench(runs, baseline_dir)
        print("\n" + "\n".join(format_report(report)))
        if args.check_report is not None:
            report_path = Path(args.check_report)
            report_path.parent.mkdir(parents=True, exist_ok=True)
            report_path.write_text(
                json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"wrote {report_path}")
        if not report.passed:
            return 1
    return 0


def _print_serve_metrics(metrics: object) -> None:
    """Render a ServingMetrics summary as text tables."""
    summary = metrics.summary()  # type: ignore[attr-defined]
    rows = [
        ["slots", summary["slots"]],
        ["deadline hit rate", summary["deadline_hit_rate"]],
        ["slot deadline (ms)", summary["slot_deadline_ms"]],
        ["joins", summary["joins"]],
        ["leaves", summary["leaves"]],
        ["timeouts", summary["timeouts"]],
        ["degraded user-slots", summary["degraded_user_slots"]],
        ["missed reports", summary["missed_reports"]],
        ["dropped frames", summary["dropped_frames"]],
    ]
    for code, count in summary["rejects"].items():
        rows.append([f"rejects[{code}]", count])
    print(format_table(["metric", "value"], rows))
    stage_rows = [
        [stage, stats["p50_ms"], stats["p99_ms"], stats["max_ms"]]
        for stage, stats in summary["stage_latency_ms"].items()
    ]
    if stage_rows:
        print("\nper-stage latency:\n")
        print(format_table(["stage", "p50 (ms)", "p99 (ms)", "max (ms)"], stage_rows))
    quality = summary["per_user_mean_viewed_quality"]
    if quality:
        print("\nper-user mean viewed quality:\n")
        print(format_table(["seat", "quality"], [[s, q] for s, q in quality.items()]))


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from dataclasses import replace

    from repro.errors import ReproError
    from repro.faults.schedule import FaultSchedule
    from repro.obs.config import ObsConfig
    from repro.serve.config import serve_setup1
    from repro.serve.server import VrServeServer
    from repro.units import SLOT_DURATION_S

    slot_s = SLOT_DURATION_S if args.slot_ms is None else args.slot_ms / 1e3
    try:
        obs_config = ObsConfig(
            enabled=not args.no_obs,
            trace_path=args.trace,
            sample_every=args.trace_sample,
            flight_dir=args.flight_dir,
            http_port=args.metrics_port,
        )
        config = serve_setup1(
            max_users=args.users,
            duration_slots=args.slots,
            seed=args.seed,
            slot_s=slot_s,
            host=args.host,
            port=args.port,
            expect_clients=args.expect,
            lockstep=args.lockstep,
        )
        faults = (
            FaultSchedule.load(args.faults) if args.faults is not None else None
        )
        config = replace(
            config,
            start_timeout_s=args.start_timeout,
            obs=obs_config,
            faults=faults,
            resume_grace_s=args.resume_grace,
            resume_grace_slots=args.resume_grace_slots,
        )

        async def _run() -> object:
            server = VrServeServer(config)
            await server.start()
            print(f"serving on {config.host}:{server.port}", flush=True)
            if args.metrics_port is not None:
                print(
                    f"metrics on http://{obs_config.http_host}:"
                    f"{server.metrics_port}/metrics",
                    flush=True,
                )
            return await server.run()

        result = asyncio.run(_run())
    except ReproError as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"\nrun complete: {result.slots} slots, deadline hit rate "
        f"{result.metrics.deadline_hit_rate:.4f}\n"
    )
    _print_serve_metrics(result.metrics)
    if result.metrics.deadline_hit_rate < args.require_hit_rate:
        print(
            f"deadline hit rate {result.metrics.deadline_hit_rate:.4f} below "
            f"required {args.require_hit_rate}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.errors import ReproError
    from repro.faults.schedule import FaultSchedule
    from repro.serve.loadgen import LoadGenConfig, ReconnectPolicy
    from repro.serve.mux import run_mux_fleet

    try:
        faults = (
            FaultSchedule.load(args.faults) if args.faults is not None else None
        )
        config = LoadGenConfig(
            host=args.host,
            port=args.port,
            num_clients=args.clients,
            seed=args.seed,
            latency_s=args.latency_ms / 1e3,
            jitter_s=args.jitter_ms / 1e3,
            slow_clients=args.slow_clients,
            slow_latency_s=args.slow_latency_ms / 1e3,
            churn_clients=args.churn_clients,
            churn_leave_after_slots=args.churn_leave,
            faults=faults,
            reconnect=ReconnectPolicy(max_attempts=args.reconnect_attempts),
        )
        fleet = asyncio.run(
            run_mux_fleet(config, connections=args.mux_connections)
        )
    except ReproError as exc:
        print(f"loadgen failed: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"loadgen failed: cannot reach server: {exc}", file=sys.stderr)
        return 1
    print(f"fleet of {args.clients} client(s) against {args.host}:{args.port}:\n")
    print(
        format_table(
            ["client", "seat", "frames", "displayed", "quality", "fps", "end"],
            [
                [
                    c.name,
                    c.seat,
                    c.frames,
                    c.displayed,
                    c.mean_viewed_quality,
                    c.fps,
                    c.end_reason if not c.rejected else f"rejected[{c.reject_code}]",
                ]
                for c in fleet.clients
            ],
        )
    )
    failed = [
        c
        for c in fleet.clients
        if c.rejected or c.end_reason not in ("complete", "churned")
    ]
    if failed:
        print(
            f"{len(failed)} client(s) did not complete: "
            + ", ".join(c.name for c in failed),
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the ICDCS 2022 collaborative-VR QoE paper.",
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig1", help="Fig. 1a/1b convexity measurements")

    sim = sub.add_parser("sim", help="Fig. 2/3 trace-driven simulation")
    sim.add_argument("--users", type=int, default=5)
    sim.add_argument("--slots", type=int, default=900)
    sim.add_argument("--episodes", type=int, default=2)
    sim.add_argument("--no-optimal", action="store_true",
                     help="skip the exponential offline-optimal run")

    system = sub.add_parser("system", help="Fig. 7/8 testbed emulation")
    system.add_argument("--setup", type=int, choices=(1, 2), default=1)
    system.add_argument("--slots", type=int, default=900)
    system.add_argument("--repeats", type=int, default=2)

    theorem = sub.add_parser("theorem1", help="approximation ratio study")
    theorem.add_argument("--instances", type=int, default=200)

    sweep = sub.add_parser("sweep", help="sweep a config field (e.g. alpha)")
    sweep.add_argument("field", help="config field, or alpha/beta")
    sweep.add_argument("values", help="comma-separated values, e.g. 0.02,0.2,1.0")
    sweep.add_argument("--users", type=int, default=4)
    sweep.add_argument("--slots", type=int, default=400)
    sweep.add_argument("--episodes", type=int, default=1)

    bench = sub.add_parser(
        "bench", help="fast-path benchmarks (writes BENCH_*.json)"
    )
    bench.add_argument("--out", default=".",
                       help="directory for the BENCH_*.json history files")
    bench.add_argument("--kind", default=None,
                       help="comma-separated subset of bench kinds to run "
                            "(default: all of allocator, simulator, kernel, "
                            "serve, obs, scale)")
    bench.add_argument("--quick", action="store_true",
                       help="CI smoke scale instead of the committed "
                            "baselines' full scale")
    bench.add_argument("--check", action="store_true",
                       help="diff the fresh run against committed baselines; "
                            "exit 1 on a regression")
    bench.add_argument("--baseline-dir", default=None,
                       help="directory holding the baseline BENCH_*.json "
                            "files (default: --out)")
    bench.add_argument("--check-report", default=None,
                       help="write the machine-readable check report "
                            "(JSON) to this path")

    serve = sub.add_parser(
        "serve", help="live edge server over TCP (setup-1 emulated network)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listening port (0 = ephemeral, printed at start)")
    serve.add_argument("--users", type=int, default=8,
                       help="scheduler seats / admission capacity K")
    serve.add_argument("--expect", type=int, default=1,
                       help="clients that must be ready before the loop starts")
    serve.add_argument("--slots", type=int, default=300,
                       help="total slots (the loop runs slots-1 tx slots)")
    serve.add_argument("--lockstep", action="store_true",
                       help="barrier-driven slots (deterministic; no pacing)")
    serve.add_argument("--slot-ms", type=float, default=None,
                       help="override the slot duration in milliseconds")
    serve.add_argument("--start-timeout", type=float, default=30.0,
                       help="seconds to wait for --expect clients")
    serve.add_argument("--require-hit-rate", type=float, default=0.0,
                       help="exit 1 if the slot-deadline hit rate ends lower")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="expose /metrics, /healthz, /snapshot on this "
                            "port (0 = ephemeral, printed at start)")
    serve.add_argument("--trace", default=None,
                       help="write sampled slot spans to this JSONL file")
    serve.add_argument("--trace-sample", type=int, default=16,
                       help="write every Nth slot span to --trace")
    serve.add_argument("--flight-dir", default=None,
                       help="directory for flight-recorder anomaly dumps")
    serve.add_argument("--no-obs", action="store_true",
                       help="disable tracing and the flight recorder")
    serve.add_argument("--faults", default=None,
                       help="JSON fault script to inject server-side faults")
    serve.add_argument("--resume-grace", type=float, default=0.0,
                       help="lockstep session-resume grace window in seconds "
                            "(0 = resume disabled)")
    serve.add_argument("--resume-grace-slots", type=int, default=0,
                       help="paced-mode resume grace window in slots "
                            "(0 = resume disabled)")

    loadgen = sub.add_parser(
        "loadgen", help="client fleet replaying motion traces at a server"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True,
                         help="server port to connect to")
    loadgen.add_argument("--clients", type=int, default=1)
    loadgen.add_argument("--latency-ms", type=float, default=0.0,
                         help="think-time before each report")
    loadgen.add_argument("--jitter-ms", type=float, default=0.0,
                         help="uniform extra think-time bound")
    loadgen.add_argument("--slow-clients", type=int, default=0,
                         help="first N clients use --slow-latency-ms instead")
    loadgen.add_argument("--slow-latency-ms", type=float, default=0.0)
    loadgen.add_argument("--churn-clients", type=int, default=0,
                         help="first N clients leave after --churn-leave slots")
    loadgen.add_argument("--churn-leave", type=int, default=0)
    loadgen.add_argument("--faults", default=None,
                         help="JSON fault script to inject client-side faults")
    loadgen.add_argument("--reconnect-attempts", type=int, default=0,
                         help="reconnect budget per outage (0 = clients do "
                              "not heal)")
    loadgen.add_argument("--mux-connections", type=int, default=4,
                         help="physical connections the clients are "
                              "multiplexed over (>= --clients: one each)")

    lint = sub.add_parser(
        "lint", help="domain-aware static analysis (rules RL001-RL007)"
    )
    add_lint_arguments(lint)

    obs = sub.add_parser(
        "obs", help="inspect span traces and scrape observability endpoints"
    )
    add_obs_arguments(obs)

    faults = sub.add_parser(
        "faults", help="generate and inspect deterministic fault scripts"
    )
    add_faults_arguments(faults)

    return parser


_COMMANDS = {
    "fig1": _cmd_fig1,
    "sim": _cmd_sim,
    "system": _cmd_system,
    "theorem1": _cmd_theorem1,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "lint": run_lint_command,
    "obs": run_obs_command,
    "faults": run_faults_command,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

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

from repro.analysis import ascii_bars, ascii_cdf, comparison_table, format_table
from repro.content.rate import RateModel
from repro.core import (
    DensityValueGreedyAllocator,
    FireflyAllocator,
    OfflineOptimalAllocator,
    PavqAllocator,
)
from repro.faults.cli import add_faults_arguments, run_faults_command
from repro.knapsack import combined_greedy, solve_exact
from repro.lint.cli import add_lint_arguments, run_lint_command
from repro.obs.cli import add_obs_arguments, run_obs_command
from repro.simulation import SimulationConfig, TraceSimulator
from repro.simulation.delaymodel import mean_rtt_curve
from repro.system import SystemExperiment, setup1_config, setup2_config


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


_BENCH_KINDS = ("allocator", "simulator", "serve", "obs", "kernel", "scale")


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import ConfigurationError
    from repro.perf import (
        BENCH_ALLOCATOR_FILE,
        BENCH_KERNEL_FILE,
        BENCH_SIMULATOR_FILE,
        bench_allocator,
        bench_kernel,
        bench_simulator,
        persist_run,
    )

    kinds = [k.strip() for k in args.kind.split(",") if k.strip()]
    for kind in kinds:
        if kind not in _BENCH_KINDS:
            raise ConfigurationError(
                f"unknown bench kind {kind!r}; expected some of {_BENCH_KINDS}"
            )
    sizes = [int(v) for v in args.sizes.split(",")]
    repeats = args.repeats
    sim_slots, episodes, workers = args.sim_slots, args.episodes, args.workers
    kernel_users = args.kernel_users
    kernel_slots = args.kernel_slots
    if args.quick:
        sizes = [s for s in sizes if s <= 100] or [5, 30]
        repeats = 1
        sim_slots = min(sim_slots, 120)
        episodes = min(episodes, 2)
        workers = min(workers, 2)
        kernel_users = min(kernel_users, 500)
        kernel_slots = min(kernel_slots, 2)

    out = Path(args.out)
    written = []
    runs: Dict[str, Dict] = {}

    def _dash(value: object) -> object:
        return "-" if value is None else value

    if "allocator" in kinds:
        print(
            f"allocator benchmark (reference vs heap vs array, "
            f"repeats={repeats}):\n"
        )
        allocator_run = bench_allocator(
            sizes=sizes, repeats=repeats, seed=args.seed
        )
        print(
            format_table(
                ["N", "reference (s)", "heap (s)", "array (s)",
                 "heap speedup", "array speedup"],
                [
                    [
                        r["num_items"],
                        _dash(r["reference_s"]),
                        r["heap_s"],
                        r["array_s"],
                        _dash(r["speedup"]),
                        r["array_speedup"],
                    ]
                    for r in allocator_run["sizes"]
                ],
            )
        )
        persist_run(allocator_run, out / BENCH_ALLOCATOR_FILE)
        written.append(out / BENCH_ALLOCATOR_FILE)
        runs["allocator"] = allocator_run

    if "simulator" in kinds:
        print(
            f"\nsimulator benchmark ({args.sim_users} users, {sim_slots} "
            f"slots, {episodes} episodes, {workers} workers):\n"
        )
        simulator_run = bench_simulator(
            num_users=args.sim_users,
            num_slots=sim_slots,
            num_episodes=episodes,
            max_workers=workers,
            seed=args.seed,
        )
        print(
            format_table(
                ["metric", "value"],
                [
                    ["cold slots/s", simulator_run["cold_slots_per_s"]],
                    ["warm slots/s", simulator_run["warm_slots_per_s"]],
                    ["serial (s)", simulator_run["serial_s"]],
                    [f"parallel x{workers} (s)",
                     _dash(simulator_run["parallel_s"])],
                    ["parallel speedup",
                     _dash(simulator_run["parallel_speedup"])],
                ],
            )
        )
        if simulator_run["parallel_fallback"]:
            print(f"\nserial fallback: {simulator_run['parallel_reason']}")
        persist_run(simulator_run, out / BENCH_SIMULATOR_FILE)
        written.append(out / BENCH_SIMULATOR_FILE)
        runs["simulator"] = simulator_run

    if "kernel" in kinds:
        print(
            f"\nkernel benchmark ({kernel_users} users, "
            f"{args.kernel_levels} levels, {kernel_slots} slots, "
            f"repeats={repeats}):\n"
        )
        kernel_run = bench_kernel(
            num_users=kernel_users,
            num_levels=args.kernel_levels,
            num_slots=kernel_slots,
            repeats=repeats,
            seed=args.seed,
        )
        print(
            format_table(
                ["metric", "value"],
                [
                    ["object slots/s", kernel_run["object_slots_per_s"]],
                    ["array slots/s", kernel_run["array_slots_per_s"]],
                    ["allocate speedup", kernel_run["speedup"]],
                    ["solutions identical",
                     float(kernel_run["solutions_identical"])],
                    ["batch bytes", kernel_run["batch_nbytes"]],
                    ["predictor speedup",
                     kernel_run["predictor"]["speedup"]],
                    ["coverage speedup", kernel_run["coverage"]["speedup"]],
                ],
            )
        )
        persist_run(kernel_run, out / BENCH_KERNEL_FILE)
        written.append(out / BENCH_KERNEL_FILE)
        runs["kernel"] = kernel_run

    if "serve" in kinds:
        from repro.serve import BENCH_SERVE_FILE, bench_serve

        serve_users = [int(v) for v in args.serve_users.split(",")]
        serve_slots = args.serve_slots
        mux_clients = args.mux_clients
        mux_connections = args.mux_connections
        if args.quick:
            serve_users = [u for u in serve_users if u <= 2] or [2]
            serve_slots = min(serve_slots, 40)
            mux_clients = min(mux_clients, 16)
            mux_connections = min(mux_connections, 2)
        print(
            f"\nserving benchmark (fleets {serve_users}, {serve_slots} slots, "
            f"target hit rate {args.serve_target}):\n"
        )
        serve_run = bench_serve(
            user_counts=serve_users,
            slots=serve_slots,
            seed=args.seed,
            deadline_target=args.serve_target,
            mux_clients=mux_clients,
            mux_connections=mux_connections,
        )
        print(
            format_table(
                ["users", "hit rate", "p50 slot (ms)", "p99 slot (ms)"],
                [
                    [
                        int(r["users"]),
                        r["deadline_hit_rate"],
                        r["p50_slot_ms"],
                        r["p99_slot_ms"],
                    ]
                    for r in serve_run["fleets"]
                ],
            )
        )
        print(
            f"\nusers sustained at >={args.serve_target:.0%} hit rate: "
            f"{serve_run['users_sustained']}"
        )
        protocol = serve_run["protocol"]
        if "mux" in protocol:
            mux = protocol["mux"]
            print(
                f"\nmux: {int(mux['clients'])} virtual clients over "
                f"{int(mux['connections'])} connections, hit rate "
                f"{mux['deadline_hit_rate']:.4f}, p99 slot "
                f"{mux['p99_slot_ms']:.2f} ms, missed "
                f"{int(mux['missed_reports'])}"
            )
        persist_run(serve_run, out / BENCH_SERVE_FILE)
        written.append(out / BENCH_SERVE_FILE)
        runs["serve"] = serve_run

    if "obs" in kinds:
        from repro.obs.bench import BENCH_OBS_FILE, bench_obs

        serve_users = [int(v) for v in args.serve_users.split(",")]
        obs_users = max(serve_users)
        obs_slots = args.serve_slots
        if args.quick:
            obs_users = min(obs_users, 2)
            obs_slots = min(obs_slots, 40)
        obs_repeats = 1 if args.quick else repeats
        print(
            f"\nobservability overhead benchmark ({obs_users} users, "
            f"{obs_slots} slots, repeats={obs_repeats}):\n"
        )
        obs_run = bench_obs(
            users=obs_users,
            slots=obs_slots,
            seed=args.seed,
            repeats=obs_repeats,
        )
        print(
            format_table(
                ["metric", "value"],
                [
                    ["obs off mean slot (ms)", obs_run["off_mean_slot_ms"]],
                    ["obs on mean slot (ms)", obs_run["on_mean_slot_ms"]],
                    ["overhead (%)", obs_run["overhead_pct"]],
                    ["within budget", float(obs_run["within_budget"])],
                ],
            )
        )
        persist_run(obs_run, out / BENCH_OBS_FILE)
        written.append(out / BENCH_OBS_FILE)
        runs["obs"] = obs_run

    if "scale" in kinds:
        from repro.shard import BENCH_SCALE_FILE, bench_scale

        scale_shards = [int(v) for v in args.scale_shards.split(",")]
        scale_users = args.scale_users
        scale_slots = args.scale_slots
        if args.quick:
            scale_shards = [n for n in scale_shards if n <= 2] or [1, 2]
            scale_users = min(scale_users, 2)
            scale_slots = min(scale_slots, 30)
        print(
            f"\nshard scale benchmark (shard counts {scale_shards}, "
            f"{scale_users} users/shard, {scale_slots} slots, "
            f"target hit rate {args.serve_target}):\n"
        )
        scale_run = bench_scale(
            shard_counts=scale_shards,
            users_per_shard=scale_users,
            slots=scale_slots,
            seed=args.seed,
            deadline_target=args.serve_target,
        )
        print(
            format_table(
                ["shards", "users", "hit rate", "missed", "migrations"],
                [
                    [
                        int(r["shards"]),
                        int(r["users"]),
                        r["deadline_hit_rate"],
                        int(r["missed_reports"]),
                        int(r["migrations"]),
                    ]
                    for r in scale_run["clusters"]
                ],
            )
        )
        print(
            f"\nusers sustained at >={args.serve_target:.0%} hit rate: "
            f"{scale_run['users_sustained']}"
        )
        persist_run(scale_run, out / BENCH_SCALE_FILE)
        written.append(out / BENCH_SCALE_FILE)
        runs["scale"] = scale_run

    if written:
        print("\nwrote " + ", ".join(str(p) for p in written))

    if args.check:
        import json as _json

        from repro.perf.regression import check_bench, format_report

        baseline_dir = (
            Path(args.baseline_dir) if args.baseline_dir is not None else out
        )
        report = check_bench(runs, baseline_dir)
        print("\n" + "\n".join(format_report(report)))
        if args.check_report is not None:
            report_path = Path(args.check_report)
            report_path.parent.mkdir(parents=True, exist_ok=True)
            report_path.write_text(
                _json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
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
    from repro.faults import FaultSchedule
    from repro.obs import ObsConfig
    from repro.serve import VrServeServer, serve_setup1
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
            kernel=args.kernel,
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
    from repro.faults import FaultSchedule
    from repro.serve import (
        LoadGenConfig,
        ReconnectPolicy,
        run_mux_fleet,
    )

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
    bench.add_argument("--kind", default=",".join(_BENCH_KINDS),
                       help="comma-separated subset of benchmarks to run: "
                            + ",".join(_BENCH_KINDS))
    bench.add_argument("--sizes", default="5,30,100,1000,10000",
                       help="comma-separated allocator instance sizes")
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--sim-users", type=int, default=5)
    bench.add_argument("--sim-slots", type=int, default=600)
    bench.add_argument("--episodes", type=int, default=4)
    bench.add_argument("--workers", type=int, default=4)
    bench.add_argument("--kernel-users", type=int, default=10000,
                       help="population size for the slot-kernel bench")
    bench.add_argument("--kernel-levels", type=int, default=6)
    bench.add_argument("--kernel-slots", type=int, default=3,
                       help="distinct seeded slots timed per arm")
    bench.add_argument("--serve-users", default="2,4,8",
                       help="comma-separated fleet sizes for the serve bench")
    bench.add_argument("--serve-slots", type=int, default=120)
    bench.add_argument("--serve-target", type=float, default=0.99,
                       help="deadline hit rate a fleet must sustain")
    bench.add_argument("--mux-clients", type=int, default=128,
                       help="virtual clients for the multiplexed serve row "
                            "(0 = skip)")
    bench.add_argument("--mux-connections", type=int, default=4,
                       help="physical connections for the multiplexed row")
    bench.add_argument("--scale-shards", default="1,2",
                       help="comma-separated shard counts for the scale bench")
    bench.add_argument("--scale-users", type=int, default=2,
                       help="clients per shard for the scale bench")
    bench.add_argument("--scale-slots", type=int, default=80,
                       help="per-shard slots for the scale bench")
    bench.add_argument("--quick", action="store_true",
                       help="smoke-test scale for CI")
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
    serve.add_argument("--kernel", action="store_true",
                       help="allocate with the vectorized array kernel "
                            "(bit-identical; faster at large seat counts)")

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

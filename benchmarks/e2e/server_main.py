"""The server under test, run as its own process by the benchmark.

    python3 benchmarks/e2e/server_main.py \\
        --seats 8 --slots 1200 --mode paced --refresh 1 --seed 0 \\
        [--trace | --setup-only]

Builds a setup-1 ``ServeConfig`` with observability disabled and runs
``VrServeServer`` on an ephemeral loopback port.  Standard output
carries two JSON lines: ``{"port": N}`` once the listener is bound,
and the run's result after the server has shut down.  ``--trace``
installs the layer wrappers listed in ``spec.json`` before anything is
constructed, so every call of the run goes through them.
``--setup-only`` builds and admits exactly as a full run does, then
ends the run at slot 0 and reports only when slot 0 would have started.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
for _entry in (ROOT / "src", ROOT):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

from benchmarks.e2e.tracer import LayerTracer  # noqa: E402

SPEC_PATH = Path(__file__).resolve().parent / "spec.json"


def cpu_seconds() -> float:
    """User plus system CPU time of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process since it exec'd.

    ``ru_maxrss`` would also count the pages the parent had when it
    forked this process, so the kernel's own high-water mark is read.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM line in /proc/self/status")


async def serve(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.obs.config import ObsConfig
    from repro.serve.config import serve_setup1
    from repro.serve.server import VrServeServer

    base = serve_setup1(
        max_users=args.seats,
        duration_slots=args.slots + 1,
        seed=args.seed,
        expect_clients=args.seats,
        lockstep=args.mode == "lockstep",
    )
    config = replace(
        base,
        experiment=replace(
            base.experiment, content_refresh_slots=args.refresh
        ),
        obs=ObsConfig(enabled=False),
        exact_stage_latency=True,
    )
    server = VrServeServer(config)
    marks: Dict[str, float] = {}
    run_slots = server.slot_loop.run

    async def timed_run() -> None:
        # Slot 0 starts here: the paced due times count from this
        # reading, and setup time ends at it.  Serving CPU is counted
        # from here to the last fold, without set-up or teardown.
        marks["t0"] = time.monotonic()
        if args.setup_only:
            return
        cpu0_s = cpu_seconds()
        await run_slots()
        marks["cpu_s"] = cpu_seconds() - cpu0_s

    server.slot_loop.run = timed_run  # type: ignore[method-assign]
    await server.start()
    print(json.dumps({"port": server.port}), flush=True)
    result = await server.run()
    if args.setup_only:
        return {"t0": marks["t0"]}
    metrics = result.metrics
    slot_hist = metrics.stage_latency["slot"]
    # The allocate stage times the degradation caps and
    # EdgeServer.plan_slot; the caps are under 1% of it.
    plan_hist = metrics.stage_latency["allocate"]
    return {
        "t0": marks["t0"],
        "cpu_s": marks["cpu_s"],
        "peak_rss_mb": peak_rss_mb(),
        "slots": result.slots,
        "missed_reports": metrics.missed_reports,
        "degraded_user_slots": metrics.degraded_user_slots,
        "dropped_frames": metrics.dropped_frames,
        "deadline_hit_rate": metrics.deadline_hit_rate,
        "slot_ms_p50": slot_hist.quantile(0.50) * 1e3,
        "slot_ms_p99": slot_hist.quantile(0.99) * 1e3,
        "slot_ms_mean": slot_hist.mean() * 1e3,
        "plan_ms_p50": plan_hist.quantile(0.50) * 1e3,
        "plan_ms_p99": plan_hist.quantile(0.99) * 1e3,
        "per_user_quality": {
            str(seat): quality
            for seat, quality in metrics.per_user_quality().items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seats", type=int, required=True)
    parser.add_argument("--slots", type=int, required=True)
    parser.add_argument("--mode", choices=("paced", "lockstep"), required=True)
    parser.add_argument("--refresh", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    runs = parser.add_mutually_exclusive_group()
    runs.add_argument("--trace", action="store_true")
    runs.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    tracer: Optional[LayerTracer] = None
    if args.trace:
        tracer = LayerTracer()
        tracer.install(json.loads(SPEC_PATH.read_text())["wrappers"])
    outcome = asyncio.run(serve(args))
    if tracer is not None:
        outcome["trace"] = tracer.report()
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

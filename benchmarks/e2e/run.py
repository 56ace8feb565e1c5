"""Out-of-process end-to-end serving benchmark.

The server under test runs as its own process (``server_main.py``);
this process is the load generator.  It drives the server with the
multiplexed fleet (``repro.serve.mux.run_mux_fleet``) over two
connections on one asyncio thread, timestamps every plan as it comes
off the socket, and reports what the phones saw.

Full run: every workload, three repeats interleaved round-robin, then
one traced repeat per workload::

    PYTHONPATH=src python -m benchmarks.e2e.run --seed 0 [--quick]

One workload for a measured-time budget (the command in BENCHMARK.json)::

    python3 benchmarks/e2e/run.py --workload testbed-8 --seed 3 \\
        --seconds 10 --trace 0

Each workload prints a table of every metric with its unit.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the gated end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The full record is written under ``benchmarks/e2e/results/``.  The
exit code is 0 only when every correctness check passed.

Metric names, units, directions and bounds come from ``BENCHMARK.json``
at the repository root; ``spec.json`` holds what that file's schema has
no place for.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import select
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
for _entry in (ROOT / "src", ROOT):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

import numpy as np  # noqa: E402

from benchmarks.e2e.server_main import cpu_seconds  # noqa: E402

#: Untraced repeats per workload; every end-to-end metric is their median.
REPEATS = 3
#: Set-up-only server launches before each repeat.  ``setup_s`` is the
#: median over these and the repeats' own set-ups: nine per workload.
SETUP_PROBES_PER_REPEAT = 2
#: Slots per repeat under ``--quick`` (which also quarters the seats).
QUICK_SLOTS = 60
#: Above this median share of a core the run would measure the
#: generator, not the server.  Generator turnaround is printed but not
#: checked: its median is 1-2 ms, but on a shared 2-vCPU guest the
#: generator is descheduled for 10-50 ms at random, and those stalls
#: set its p99.
MAX_LOADGEN_CPU_SHARE = 0.8
#: Server-side and client-side per-seat quality must agree this closely
#: on lockstep workloads.
QUALITY_TOLERANCE = 1e-9
#: Seconds to wait for the server to bind before giving up.
LISTEN_TIMEOUT_S = 60.0
RESULTS_DIR = HERE / "results"


class BenchmarkError(Exception):
    """The benchmark could not complete a run."""


@dataclass(frozen=True)
class Workload:
    """One traffic mix (see ``BENCHMARK.json`` for why each exists)."""

    name: str
    seats: int
    connections: int
    mode: str
    content_refresh_slots: int
    slots: int
    slots_per_s: float
    why: str

    @property
    def lockstep(self) -> bool:
        return self.mode == "lockstep"

    def quick(self) -> "Workload":
        return replace(self, seats=max(1, self.seats // 4), slots=QUICK_SLOTS)


def load_spec() -> Dict[str, Any]:
    """The benchmark's definition, from ``BENCHMARK.json`` and ``spec.json``.

    End-to-end metrics are the diagnostics of ``spec.json`` followed by
    the gated ones of ``BENCHMARK.json``; only the latter have a bound.
    """
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    return {
        "workloads": [
            Workload(name=w["name"], why=w["why"], **spec["workloads"][w["name"]])
            for w in benchmark["workloads"]
        ],
        "end_to_end": spec["diagnostics"] + benchmark["end_to_end"],
        "per_layer": benchmark["per_layer"],
        "oracle": spec["oracle"],
    }


# ---------------------------------------------------------------------------
# Generator-side timestamps
# ---------------------------------------------------------------------------


class PlanRecorder:
    """Client-observed arrival and report times per (seat, slot).

    Two wrappers are installed in this process only: one stamps the
    moment a whole frame has been read off a socket, the other records
    which plans that frame carried and when the answering report batch
    was written.  No ``await`` separates the two, so the last frame
    stamp always belongs to the plans being answered.
    """

    def __init__(self, seats: int, slots: int) -> None:
        self.arrival = np.full((seats, slots), np.nan)
        self.reported = np.full((seats, slots), np.nan)
        self.turnaround_s: List[float] = []
        self.plan_bytes = 0
        self.first_cpu: Optional[Tuple[float, float]] = None
        self.last_cpu: Optional[Tuple[float, float]] = None
        self._frame_read_s = 0.0
        self._frame_bytes = 0

    @contextmanager
    def installed(self) -> Iterator["PlanRecorder"]:
        from repro.serve import mux, protocol2

        read_frame = protocol2.read_frame
        answer_plans = mux._MuxLink._answer_plans
        seats, slots = self.arrival.shape

        async def timed_read_frame(reader: Any) -> Any:
            frame = await read_frame(reader)
            self._frame_read_s = time.monotonic()
            if frame is not None:
                self._frame_bytes = protocol2.HEADER.size + len(frame[2])
            return frame

        async def timed_answer_plans(link: Any, plans: Any) -> None:
            arrived = self._frame_read_s
            self.plan_bytes += self._frame_bytes
            if self.first_cpu is None:
                self.first_cpu = (arrived, cpu_seconds())
            for seat, plan in plans:
                if 0 <= seat < seats and 0 <= plan.slot < slots:
                    self.arrival[seat, plan.slot] = arrived
            await answer_plans(link, plans)
            sent = time.monotonic()
            for seat, plan in plans:
                if 0 <= seat < seats and 0 <= plan.slot < slots:
                    self.reported[seat, plan.slot] = sent
            self.turnaround_s.append(sent - arrived)
            self.last_cpu = (sent, cpu_seconds())

        protocol2.read_frame = timed_read_frame  # type: ignore[assignment]
        mux._MuxLink._answer_plans = timed_answer_plans  # type: ignore[method-assign]
        try:
            yield self
        finally:
            protocol2.read_frame = read_frame  # type: ignore[assignment]
            mux._MuxLink._answer_plans = answer_plans  # type: ignore[method-assign]

    def cpu_share(self) -> float:
        """Generator CPU over wall time between the first and last plan."""
        if self.first_cpu is None or self.last_cpu is None:
            return 0.0
        wall_s = self.last_cpu[0] - self.first_cpu[0]
        if wall_s <= 0:
            return 0.0
        return (self.last_cpu[1] - self.first_cpu[1]) / wall_s


# ---------------------------------------------------------------------------
# One server run: launch the server, drive it, measure
# ---------------------------------------------------------------------------


def qoe_fingerprint(clients: Sequence[Any]) -> str:
    """sha256 over each seat's frames, displayed count and mean quality."""
    digest = hashlib.sha256()
    for client in sorted(clients, key=lambda c: c.seat):
        digest.update(
            f"{client.seat}:{client.frames}:{client.displayed}:"
            f"{client.mean_viewed_quality!r};".encode()
        )
    return digest.hexdigest()


def _read_line(proc: "subprocess.Popen[str]", timeout_s: float) -> str:
    assert proc.stdout is not None
    ready, _, _ = select.select([proc.stdout], [], [], timeout_s)
    if not ready:
        raise BenchmarkError(f"server did not answer within {timeout_s:.0f} s")
    line = proc.stdout.readline()
    if not line:
        raise BenchmarkError("server exited before it was listening")
    return line


def _incomplete(clients: Sequence[Any]) -> List[str]:
    return [c.name for c in clients if c.end_reason != "complete" or c.rejected]


def serve_once(
    workload: Workload, seed: int, slots: int, mode_flag: Optional[str]
) -> Tuple[float, PlanRecorder, Any, Dict[str, Any]]:
    """Launch one server process and drive it with one fleet.

    ``mode_flag`` is passed to ``server_main.py`` (``--trace`` or
    ``--setup-only``).  Returns the launch time, the generator's
    readings, the fleet report and the server's result line.
    """
    from repro.serve.loadgen import LoadGenConfig
    from repro.serve.mux import run_mux_fleet

    command = [
        sys.executable, str(HERE / "server_main.py"),
        "--seats", str(workload.seats),
        "--slots", str(slots),
        "--mode", workload.mode,
        "--refresh", str(workload.content_refresh_slots),
        "--seed", str(seed),
    ] + ([mode_flag] if mode_flag else [])
    launched = time.monotonic()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        port = int(json.loads(_read_line(proc, LISTEN_TIMEOUT_S))["port"])
        recorder = PlanRecorder(workload.seats, slots)
        fleet_config = LoadGenConfig(
            port=port, num_clients=workload.seats, seed=seed
        )
        # Generous: even a slot rate of 10 Hz finishes well inside it.
        timeout_s = 60.0 + slots / 10.0
        # The generator is the instrument, not the system under test:
        # a cyclic-GC pass over every client's trace would stall its
        # answers and show up as server latency.
        gc.disable()
        try:
            with recorder.installed():
                fleet = asyncio.run(
                    asyncio.wait_for(
                        run_mux_fleet(fleet_config, workload.connections),
                        timeout_s,
                    )
                )
        finally:
            gc.enable()
        assert proc.stdout is not None
        lines = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"server exited with code {proc.returncode}")
    return launched, recorder, fleet, json.loads(lines[-1])


def run_repeat(
    workload: Workload, seed: int, slots: int, traced: bool
) -> Dict[str, Any]:
    """One measured repeat."""
    launched, recorder, fleet, server = serve_once(
        workload, seed, slots, "--trace" if traced else None
    )
    return measure(workload, slots, launched, recorder, fleet, server)


def setup_probe(workload: Workload, seed: int, slots: int) -> float:
    """Seconds from launch to slot 0 of a server that stops there.

    The server is built for ``slots`` and admits the whole fleet, as
    in a repeat, so the set-up work is the same.
    """
    launched, _, fleet, server = serve_once(workload, seed, slots, "--setup-only")
    incomplete = _incomplete(fleet.clients)
    if incomplete:
        raise BenchmarkError(
            f"set-up probe: {len(incomplete)} client(s) did not complete"
        )
    return float(server["t0"] - launched)


def measure(
    workload: Workload,
    slots: int,
    launched: float,
    recorder: PlanRecorder,
    fleet: Any,
    server: Dict[str, Any],
) -> Dict[str, Any]:
    """Turn one repeat's raw readings into metrics and check results."""
    from repro.units import SLOT_DURATION_S

    slot_s = SLOT_DURATION_S
    run_slots = int(server["slots"])
    arrival = recorder.arrival[:, :run_slots]
    planned = workload.seats * run_slots
    if workload.lockstep:
        due = np.empty_like(arrival)
        due[:, 0] = server["t0"]
        due[:, 1:] = recorder.reported[:, : run_slots - 1]
    else:
        due = server["t0"] + slot_s * np.arange(run_slots)[None, :]
    delay_ms = ((arrival - due) * 1e3)[np.isfinite(arrival - due)]
    received = int(np.isfinite(arrival).sum())
    first_seen = np.nanmin(arrival, axis=0) if received else np.array([])
    seen = np.flatnonzero(np.isfinite(first_seen))
    span_s = (
        first_seen[seen[-1]] - first_seen[seen[0]] if len(seen) > 1 else 0.0
    )
    clients = fleet.clients
    frames = sum(c.frames for c in clients)
    e2e = {
        "plan_on_time_rate": float(np.sum(delay_ms <= slot_s * 1e3)) / planned,
        "plan_delay_p50_ms": float(np.percentile(delay_ms, 50)) if received else 0.0,
        "plan_delay_p99_ms": float(np.percentile(delay_ms, 99)) if received else 0.0,
        "slot_rate_hz": (seen[-1] - seen[0]) / span_s if span_s > 0 else 0.0,
        "report_loss_rate": server["missed_reports"] / planned,
        "plan_loss_rate": (planned - received) / planned,
        "displayed_rate": sum(c.displayed for c in clients) / frames if frames else 0.0,
        "viewed_quality_mean": statistics.fmean(c.mean_viewed_quality for c in clients),
        "server_cpu_ms_per_slot": server["cpu_s"] * 1e3 / run_slots,
        "server_peak_rss_mb": server["peak_rss_mb"],
    }
    turnaround = recorder.turnaround_s or [0.0]
    loadgen = {
        "loadgen.cpu_share": recorder.cpu_share(),
        "loadgen.turnaround_p99_ms": float(np.percentile(turnaround, 99)) * 1e3,
    }
    failures = []
    incomplete = _incomplete(clients)
    if incomplete:
        failures.append(f"{len(incomplete)} client(s) did not complete: {incomplete[:4]}")
    if run_slots != slots:
        failures.append(f"server ran {run_slots} of {slots} slots")
    if workload.lockstep:
        served = server["per_user_quality"]
        for client in clients:
            other = served.get(str(client.seat))
            if other is None or abs(other - client.mean_viewed_quality) > QUALITY_TOLERANCE:
                failures.append(
                    f"seat {client.seat}: server quality {other} != client "
                    f"quality {client.mean_viewed_quality}"
                )
                break
    return {
        "slots": run_slots,
        "setup_s": server["t0"] - launched,
        "e2e": e2e,
        "loadgen": loadgen,
        "plan_bytes": recorder.plan_bytes,
        "server": {k: v for k, v in server.items() if k not in ("trace", "per_user_quality")},
        "trace": server.get("trace"),
        "fingerprint": qoe_fingerprint(clients),
        "attempted": planned,
        "failed": (planned - received) + len(incomplete),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def layer_metrics(
    workload: Workload, traced: Dict[str, Any], untraced: Dict[str, float]
) -> Dict[str, float]:
    """Per-slot layer metrics from the traced repeat.

    ``untraced`` holds the end-to-end readings of the untraced repeat
    run just before it, the baseline of the overhead comparison.
    """
    slots = traced["slots"]
    server = traced["server"]
    stats: Dict[str, List[float]] = traced["trace"]["stats"]
    out: Dict[str, float] = {}
    for metric, (calls, self_s) in stats.items():
        out[f"{metric}.calls"] = calls / slots
        out[f"{metric}.self_ms"] = self_s * 1e3 / slots
    wrapped_ms = sum(self_s for _, self_s in stats.values()) * 1e3 / slots
    cpu_ms = traced["e2e"]["server_cpu_ms_per_slot"]
    out["edge.plan_slot.ms_p50"] = server["plan_ms_p50"]
    out["edge.plan_slot.ms_p99"] = server["plan_ms_p99"]
    out["codec.plan_bytes_per_seat_slot"] = traced["plan_bytes"] / (workload.seats * slots)
    out["slotloop.outside_ms"] = cpu_ms - wrapped_ms
    out["slotloop.slot_ms_p50"] = server["slot_ms_p50"]
    out["slotloop.slot_ms_p99"] = server["slot_ms_p99"]
    out["slotloop.slot_ms_mean"] = server["slot_ms_mean"]
    out["slotloop.deadline_hit_rate"] = server["deadline_hit_rate"]
    for counter in ("missed_reports", "degraded_user_slots", "dropped_frames"):
        out[f"slotloop.{counter}"] = server[counter] / slots
    out["trace_overhead_pct"] = (cpu_ms / untraced["server_cpu_ms_per_slot"] - 1.0) * 100.0
    out.update(traced["loadgen"])
    return out


def pipeline_coverage(traced: Dict[str, Any]) -> float:
    """Wrapped self time per slot over the mean slot time.

    Reports are decoded in the connection handlers, outside the slot,
    so ``codec.decode`` is left out.
    """
    stats = traced["trace"]["stats"]
    inside_s = sum(s for m, (_, s) in stats.items() if m != "codec.decode")
    slot_ms = traced["server"]["slot_ms_mean"]
    return inside_s * 1e3 / traced["slots"] / slot_ms if slot_ms > 0 else 0.0


def summarize(
    workload: Workload,
    seed: int,
    repeats: List[Dict[str, Any]],
    probes: List[float],
    traced: Optional[Dict[str, Any]],
    spec: Dict[str, Any],
) -> Dict[str, Any]:
    """Medians over repeats, cross-repeat checks, the traced breakdown."""
    medians = {
        name: statistics.median(r["e2e"][name] for r in repeats)
        for name in repeats[0]["e2e"]
    }
    setups = [r["setup_s"] for r in repeats] + probes
    medians["setup_s"] = statistics.median(setups)
    loadgen = {
        name: statistics.median(r["loadgen"][name] for r in repeats)
        for name in repeats[0]["loadgen"]
    }
    everything = repeats + ([traced] if traced is not None else [])
    failures = [f for r in everything for f in r["failures"]]
    if loadgen["loadgen.cpu_share"] > MAX_LOADGEN_CPU_SHARE:
        failures.append(
            f"invalid run: generator CPU share {loadgen['loadgen.cpu_share']:.2f} "
            f"> {MAX_LOADGEN_CPU_SHARE}"
        )
    fingerprints = sorted({r["fingerprint"] for r in everything})
    if workload.lockstep and len(fingerprints) > 1:
        failures.append(
            f"qoe_fingerprint differs across repeats: {', '.join(f[:16] for f in fingerprints)}"
        )
    oracle_key = f"seed{seed}/{workload.seats}x{repeats[0]['slots']}"
    expected = spec["oracle"].get(workload.name, {}).get(oracle_key)
    got = {
        "qoe_fingerprint": repeats[0]["fingerprint"],
        "viewed_quality_mean": medians["viewed_quality_mean"],
    }
    if expected is not None and got != expected:
        failures.append(f"QoE differs from the committed oracle {oracle_key}: {got} != {expected}")
    summary: Dict[str, Any] = {
        "workload": asdict(workload),
        "e2e": medians,
        "setups": setups,
        "loadgen": loadgen,
        "qoe_fingerprint": got["qoe_fingerprint"],
        "oracle": None if expected is None else oracle_key,
        "repeats": repeats,
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "failures": failures,
    }
    if traced is not None:
        summary["layers"] = layer_metrics(workload, traced, repeats[-1]["e2e"])
        summary["pipeline_coverage"] = pipeline_coverage(traced)
        summary["absent"] = traced["trace"]["absent"]
        summary["traced"] = traced
    return summary


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_summary(summary: Dict[str, Any], spec: Dict[str, Any]) -> None:
    w = summary["workload"]
    print(
        f"== {w['name']}: {w['seats']} seats / {w['connections']} conns, "
        f"{w['mode']}, content_refresh_slots={w['content_refresh_slots']}, "
        f"{summary['repeats'][0]['slots']} slots x {len(summary['repeats'])} repeats"
    )
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name == "setup_s":
            values = summary["setups"]
        else:
            values = [r["e2e"][name] for r in summary["repeats"]]
        tag = "" if "bound" in metric else "  (diagnostic)"
        print(
            f"  {name:<26} {_fmt(summary['e2e'][name]):>12} "
            f"{metric['unit']:<6} [{', '.join(_fmt(v) for v in values)}]{tag}"
        )
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in summary["loadgen"].items():
        print(f"  {name:<26} {_fmt(value):>12} {units[name]}")
    oracle = summary["oracle"]
    print(
        f"  {'qoe_fingerprint':<26} {summary['qoe_fingerprint'][:16]}"
        + (f"  (oracle {oracle})" if oracle else "")
    )
    if "layers" in summary:
        print(f"-- {w['name']} traced pass")
        for metric in spec["per_layer"]:
            name = metric["name"]
            shown = _fmt(summary["layers"][name]) if name in summary["layers"] else "absent"
            print(f"  {name:<34} {shown:>12} {metric['unit']}")
        print(
            f"  {'wrapped self time / slot_ms_mean':<34} "
            f"{_fmt(summary['pipeline_coverage']):>12} ratio"
        )
        for target in summary["absent"]:
            print(f"  absent target: {target}")
    for failure in summary["failures"]:
        print(f"  FAILED: {failure}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def slots_per_repeat(workload: Workload, seconds: Optional[float]) -> int:
    """The workload's table length, or its share of a measured-time budget."""
    if seconds is None:
        return workload.slots
    return max(3, round(seconds * workload.slots_per_s / REPEATS))


def run_benchmark(
    workloads: Sequence[Workload],
    seed: int,
    seconds: Optional[float],
    trace: bool,
    spec: Dict[str, Any],
) -> List[Dict[str, Any]]:
    slots = {w.name: slots_per_repeat(w, seconds) for w in workloads}
    repeats: Dict[str, List[Dict[str, Any]]] = {w.name: [] for w in workloads}
    probes: Dict[str, List[float]] = {w.name: [] for w in workloads}
    traced: Dict[str, Dict[str, Any]] = {}
    for round_index in range(REPEATS):
        for workload in workloads:
            n = slots[workload.name]
            for _ in range(SETUP_PROBES_PER_REPEAT):
                probes[workload.name].append(setup_probe(workload, seed, n))
            repeats[workload.name].append(run_repeat(workload, seed, n, traced=False))
            if trace and round_index == REPEATS - 1:
                # Right after an untraced repeat of the same workload,
                # so the overhead comparison sees the same machine.
                traced[workload.name] = run_repeat(workload, seed, n, traced=True)
    return [
        summarize(
            workload, seed, repeats[workload.name], probes[workload.name],
            traced.get(workload.name), spec,
        )
        for workload in workloads
    ]


def result_line(
    summaries: List[Dict[str, Any]], spec: Dict[str, Any], trace: bool
) -> Dict[str, Any]:
    """The final JSON object: gated end-to-end or per-layer metrics."""
    metrics: Dict[str, Dict[str, Any]] = {}
    prefix = len(summaries) > 1
    for summary in summaries:
        if trace:
            values = summary["layers"]
            wanted = spec["per_layer"]
        else:
            values = summary["e2e"]
            wanted = [m for m in spec["end_to_end"] if "bound" in m]
        for metric in wanted:
            if metric["name"] not in values:
                continue
            key = (
                f"{summary['workload']['name']}/{metric['name']}"
                if prefix else metric["name"]
            )
            metrics[key] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return {
        "correct": not any(s["failures"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Out-of-process end-to-end serving benchmark."
    )
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        help="measured time per workload (default: each workload's table length)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=1,
        help="1: add the traced pass and report per-layer metrics",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"a quarter of the seats and {QUICK_SLOTS} slots per repeat",
    )
    args = parser.parse_args(argv)
    # A terminated run still reaps its server child (see serve_once).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        import repro.serve.mux  # noqa: F401
    except ImportError as exc:
        print(f"error: the program under test is not importable: {exc}", file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = spec["workloads"]
    if args.workload is not None:
        workloads = [w for w in workloads if w.name == args.workload]
        if not workloads:
            parser.error(f"unknown workload {args.workload!r}")
    if args.quick:
        workloads = [w.quick() for w in workloads]
    trace = bool(args.trace)
    try:
        summaries = run_benchmark(workloads, args.seed, args.seconds, trace, spec)
    except (BenchmarkError, asyncio.TimeoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for summary in summaries:
        print_summary(summary, spec)
    line = result_line(summaries, spec, trace)
    RESULTS_DIR.mkdir(exist_ok=True)
    label = args.workload or "all"
    out = RESULTS_DIR / f"{label}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"argv": argv if argv is not None else sys.argv[1:],
                               "summaries": summaries}, indent=1))
    print(f"full record: {out.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

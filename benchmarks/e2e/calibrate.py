"""Measure the benchmark's run-to-run spread and record it.

    python3 benchmarks/e2e/calibrate.py [--sets 2] [--seeds 10] [--seconds T]

One calibration set is a seed sweep, ``run.py --workload W --seed S
--seconds T --trace 0`` for every seed and workload (seed-major, so a
slow drift of the machine hits every workload alike), followed by one
full invocation (``run.py --seed 0``).  For every end-to-end metric
the set records the median, quartiles and spread (quartile distance
over median) of the sweep, and the full invocation's medians.  Set
against set, the relative shift of each median is what a bound must
absorb.  The sweep also records each run's wall time and QoE
fingerprint; the fingerprints of a deterministic workload are what
``spec.json``'s oracle commits.  Everything goes to
``calibration.json`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _run(args: List[str]) -> Dict[str, Any]:
    """Run ``run.py`` once and return its full record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not last["correct"]:
        raise SystemExit(f"run.py {' '.join(args)} failed:\n{proc.stdout}")
    record_line = [
        line for line in proc.stdout.splitlines() if line.startswith("full record: ")
    ][-1]
    record: Dict[str, Any] = json.loads(
        (ROOT / record_line[len("full record: "):]).read_text()
    )
    return record


def _stats(values: List[float]) -> Dict[str, Any]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
    }


def calibration_set(seeds: int, seconds: float, workloads: List[str]) -> Dict[str, Any]:
    sweep: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
    run_seconds: Dict[str, List[float]] = {w: [] for w in workloads}
    qoe: Dict[str, Dict[str, Any]] = {w: {} for w in workloads}
    started = time.monotonic()
    for seed in range(seeds):
        for workload in workloads:
            run_started = time.monotonic()
            summary = _run([
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ])["summaries"][0]
            run_seconds[workload].append(time.monotonic() - run_started)
            for name, value in summary["e2e"].items():
                sweep[workload].setdefault(name, []).append(value)
            key = f"seed{seed}/{summary['workload']['seats']}x{summary['repeats'][0]['slots']}"
            qoe[workload][key] = {
                "qoe_fingerprint": summary["qoe_fingerprint"],
                "viewed_quality_mean": summary["e2e"]["viewed_quality_mean"],
            }
    sweep_s = time.monotonic() - started
    full = _run(["--seed", "0"])
    return {
        "sweep_seconds": sweep_s,
        "run_seconds": {w: _stats(values) for w, values in run_seconds.items()},
        "sweep": {
            w: {name: _stats(values) for name, values in metrics.items()}
            for w, metrics in sweep.items()
        },
        "qoe": qoe,
        "full": {
            s["workload"]["name"]: {
                "e2e": s["e2e"],
                "setups": s["setups"],
                "qoe_fingerprint": s["qoe_fingerprint"],
                "layers": s.get("layers", {}),
                "pipeline_coverage": s.get("pipeline_coverage"),
            }
            for s in full["summaries"]
        },
    }


def _shift(first: float, second: float) -> Optional[float]:
    return (second - first) / abs(first) if first else None


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"]),
        help="measured time per run (default: BENCHMARK.json's run_seconds)",
    )
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in benchmark["workloads"]]
    sets = [
        calibration_set(args.seeds, args.seconds, workloads)
        for _ in range(args.sets)
    ]
    shifts = {
        w: {
            name: {
                "sweep": _shift(
                    sets[0]["sweep"][w][name]["median"],
                    sets[-1]["sweep"][w][name]["median"],
                ),
                "full": _shift(sets[0]["full"][w]["e2e"][name], sets[-1]["full"][w]["e2e"][name]),
            }
            for name in sets[0]["sweep"][w]
        }
        for w in workloads
    }
    out = {
        "machine": {
            "cpus": os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(),
        },
        "settings": vars(args),
        "sets": sets,
        "median_shift_first_to_last": shifts,
    }
    (HERE / "calibration.json").write_text(json.dumps(out, indent=1) + "\n")
    for w in workloads:
        print(f"== {w}")
        for name in sets[0]["sweep"][w]:
            spreads = [s["sweep"][w][name]["spread"] for s in sets]
            shown = ", ".join("-" if x is None else f"{x:.4f}" for x in spreads)
            moved = ", ".join(
                "-" if x is None else f"{x:+.4f}" for x in shifts[w][name].values()
            )
            print(f"  {name:<26} spread [{shown}]  shift sweep/full [{moved}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the end-to-end benchmark at ``--quick`` scale.

Outside the tier-1 suite (``testpaths`` is ``tests/``); it takes well
under 90 s on two cores::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from pathlib import Path
from typing import Any, Dict, Iterator

import pytest

from benchmarks.e2e import run
from benchmarks.e2e.tracer import LayerTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC: Dict[str, Any] = run.load_spec()
WORKLOADS = [w.name for w in SPEC["workloads"]]
QUICK_LOCKSTEP = ["--workload", "static-lockstep-32", "--quick", "--trace", "0"]


@pytest.fixture(scope="module")
def quick_run() -> "subprocess.CompletedProcess[str]":
    """One quick full invocation: every workload, repeats, traced pass."""
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_every_end_to_end_metric_prints_with_its_unit(quick_run: Any) -> None:
    assert quick_run.returncode == 0, quick_run.stdout + quick_run.stderr
    tables = quick_run.stdout.split("\n== ")
    for workload in WORKLOADS:
        table = next(t for t in tables if t.lstrip("= ").startswith(workload + ":"))
        for metric in SPEC["end_to_end"]:
            pattern = rf"^  {re.escape(metric['name'])} +\S+ {re.escape(metric['unit'])} "
            assert re.search(pattern, table, re.MULTILINE), (workload, metric["name"])
    assert "(oracle seed0/8x60)" in quick_run.stdout


def test_quick_traced_run_emits_every_per_layer_key(quick_run: Any) -> None:
    last = json.loads(quick_run.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert last["attempted"] > 0 and last["failed"] == 0
    for workload in WORKLOADS:
        for metric in SPEC["per_layer"]:
            entry = last["metrics"][f"{workload}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]


def test_forged_fingerprint_mismatch_exits_1(monkeypatch: pytest.MonkeyPatch) -> None:
    real = run.qoe_fingerprint
    forged: Iterator[int] = iter(range(1000))
    monkeypatch.setattr(
        run, "qoe_fingerprint", lambda clients: f"{real(clients)}-{next(forged)}"
    )
    assert run.main(QUICK_LOCKSTEP) == 1


def test_committed_oracle_mismatch_exits_1(monkeypatch: pytest.MonkeyPatch) -> None:
    wrong = {"qoe_fingerprint": "0" * 64, "viewed_quality_mean": 0.0}
    spec = dict(SPEC, oracle={"static-lockstep-32": {"seed0/8x60": wrong}})
    monkeypatch.setattr(run, "load_spec", lambda: spec)
    assert run.main(QUICK_LOCKSTEP) == 1


def test_tracer_charges_children_and_reports_absent_targets(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    ticks = iter(float(t) for t in range(100))
    module = types.ModuleType("fake_layer")

    class Layer:
        def outer(self) -> int:
            return self.inner() + self.inner()

        def inner(self) -> int:
            return 1

    module.Layer = Layer  # type: ignore[attr-defined]
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = LayerTracer(clock=lambda: next(ticks))
    tracer.install([
        ("fake_layer", "Layer.outer", "outer"),
        ("fake_layer", "Layer.inner", "inner"),
        ("fake_layer", "Layer.renamed", "gone"),
    ])
    assert Layer().outer() == 2
    # Clock reads: outer 0, inner 1-2, inner 3-4, outer 5.
    assert tracer.stats["inner"] == [2, 2.0]
    assert tracer.stats["outer"] == [1, 3.0]
    assert tracer.absent == ["fake_layer:Layer.renamed"]

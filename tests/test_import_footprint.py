"""What the serving process loads.

Package ``__init__`` files resolve their exports on first access, so
``import repro.serve.server`` loads the serving stack and nothing from
the simulator, the sweeps, the offline solvers, the client fleet, the
shard cluster or the bench harness.  Each check runs in a fresh
interpreter, because this test process has imported all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]
ROOT = SRC.parent

#: Modules (and their submodules) a serving process must not load.
NOT_SERVING = (
    "repro.simulation.simulator",
    "repro.simulation.sweep",
    "repro.simulation.workers",
    "repro.serve.mux",
    "repro.serve.loadgen",
    "repro.core.offline",
    "repro.core.baselines",
    "repro.analysis.report",
    "repro.shard",
    "repro.perf",
    "multiprocessing",
    "numpy.ma",
)

#: Every package, as a dotted name.
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)


def _run(code):
    """Run ``code`` in a fresh interpreter; the JSON of its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded(modules, names):
    return sorted(
        name
        for name in names
        if any(m == name or m.startswith(name + ".") for m in modules)
    )


def test_serve_server_import_loads_no_offline_code():
    modules = _run(
        "import json, sys\n"
        "import repro.serve.server\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "repro.serve.server" in modules
    assert _loaded(modules, NOT_SERVING) == []


def test_lockstep_loopback_run_never_loads_numpy_ma():
    modules = _run(
        "import asyncio, json, sys\n"
        "from repro.serve.config import ServeConfig\n"
        "from repro.serve.loadgen import LoadGenConfig\n"
        "from repro.serve.mux import run_serve_and_mux_fleet\n"
        "from repro.system.experiment import setup1_config\n"
        "config = setup1_config(duration_slots=61, seed=0)\n"
        "result, fleet = asyncio.run(run_serve_and_mux_fleet(\n"
        "    ServeConfig(experiment=config, expect_clients=8, lockstep=True),\n"
        "    LoadGenConfig(num_clients=8, seed=0),\n"
        "))\n"
        "assert result.slots == 60, result.slots\n"
        "assert len(fleet.admitted) == 8\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert _loaded(modules, ("numpy.ma",)) == []


def test_every_package_export_is_listed_and_resolves():
    """``dir`` lists each name before first use; each name then resolves."""
    problems = _run(
        "import importlib, json\n"
        f"packages = {PACKAGES!r}\n"
        "problems = []\n"
        "for name in packages:\n"
        "    package = importlib.import_module(name)\n"
        "    listed = set(dir(package))\n"
        "    for export in package.__all__:\n"
        "        if export not in listed:\n"
        "            problems.append(f'{name}.{export} not in dir()')\n"
        "        try:\n"
        "            getattr(package, export)\n"
        "        except AttributeError as exc:\n"
        "            problems.append(f'{name}.{export}: {exc}')\n"
        "print(json.dumps(problems))\n"
    )
    assert len(PACKAGES) > 15
    assert problems == []

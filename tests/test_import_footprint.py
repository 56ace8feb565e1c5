"""What the serving process loads.

Package ``__init__`` files resolve their exports on first access, so
``import repro.serve.server`` loads the serving stack and nothing from
the simulator, the sweeps, the offline solvers, the client fleet, the
shard cluster or the bench harness.  Building a server loads none of
them either, nor the offline harness's motion walker and event
engine, the metrics HTTP endpoint (unless a port is set) or ``csv``.
A server with observability off and no fault schedule loads less
still: no tracer, flight recorder, span codec, SLO engine, fault
layer, offline metrics or phone model, and its shutdown starts no
worker thread.  Each check runs in a fresh interpreter, because this
test process has imported all of them.
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
    "repro.traces.motion",
    "repro.system.events",
    "repro.obs.http",
    "multiprocessing",
    "numpy.ma",
    "csv",
)

#: Modules (and their submodules) a server built with observability
#: off and no fault schedule must not load: it runs none of them.
NOT_SERVING_OBS_OFF = (
    "repro.obs.flight",
    "repro.obs.tracer",
    "repro.obs.spans",
    "repro.obs.slo",
    "repro.faults",
    "repro.simulation",
    "repro.analysis",
    "repro.system.client",
    "numpy.typing",
)

#: Builds a server as the e2e benchmark does, with ``ObsConfig(enabled=...)``.
BUILD_SERVER = (
    "import json, sys\n"
    "from dataclasses import replace\n"
    "from repro.obs.config import ObsConfig\n"
    "from repro.serve.config import serve_setup1\n"
    "from repro.serve.server import VrServeServer\n"
    "config = replace(\n"
    "    serve_setup1(max_users=8, expect_clients=8),\n"
    "    obs=ObsConfig(enabled={enabled}),\n"
    "    faults=None,\n"
    "    exact_stage_latency=True,\n"
    ")\n"
    "VrServeServer(config)\n"
    "print(json.dumps(sorted(sys.modules)))\n"
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


def test_building_a_server_loads_no_offline_code():
    modules = _run(
        "import json, sys\n"
        "from repro.serve.config import serve_setup1\n"
        "from repro.serve.server import VrServeServer\n"
        "VrServeServer(serve_setup1(max_users=8))\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "repro.system.experiment" in modules
    assert _loaded(modules, NOT_SERVING) == []


def test_obs_off_fault_free_server_loads_no_obs_fault_or_offline_code():
    modules = _run(BUILD_SERVER.format(enabled=False))
    assert "repro.obs.config" in modules
    assert _loaded(modules, NOT_SERVING_OBS_OFF) == []


def test_obs_on_server_loads_its_tracer_and_flight_recorder():
    modules = _run(BUILD_SERVER.format(enabled=True))
    assert _loaded(modules, ("repro.obs.flight", "repro.obs.tracer")) == [
        "repro.obs.flight",
        "repro.obs.tracer",
    ]


def test_paced_obs_off_run_starts_no_shutdown_thread():
    outcome = _run(
        "import asyncio, json, sys, threading\n"
        "from dataclasses import replace\n"
        "from repro.obs.config import ObsConfig\n"
        "from repro.serve.config import serve_setup1\n"
        "from repro.serve.loadgen import LoadGenConfig\n"
        "from repro.serve.mux import run_serve_and_mux_fleet\n"
        "async def main():\n"
        "    before = threading.active_count()\n"
        "    config = replace(\n"
        "        serve_setup1(\n"
        "            max_users=4, duration_slots=31, seed=0, expect_clients=4\n"
        "        ),\n"
        "        obs=ObsConfig(enabled=False),\n"
        "    )\n"
        "    result, fleet = await run_serve_and_mux_fleet(\n"
        "        config, LoadGenConfig(num_clients=4, seed=0)\n"
        "    )\n"
        "    assert result.slots == 30, result.slots\n"
        "    # Read before asyncio.run joins the default executor.\n"
        "    return before, threading.active_count()\n"
        "before, after = asyncio.run(main())\n"
        "print(json.dumps({\n"
        "    'before': before, 'after': after,\n"
        "    'executor': 'concurrent.futures.thread' in sys.modules,\n"
        "}))\n"
    )
    assert outcome["after"] == outcome["before"]
    assert outcome["executor"] is False


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
    """``dir`` lists each name before first use; each name then resolves.

    Every name ``dir`` lists is resolved, not only ``__all__``, so a
    lazy-table entry whose definition is gone fails here too.
    """
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
        "    for export in sorted(listed | set(package.__all__)):\n"
        "        try:\n"
        "            getattr(package, export)\n"
        "        except AttributeError as exc:\n"
        "            problems.append(f'{name}.{export}: {exc}')\n"
        "print(json.dumps(problems))\n"
    )
    assert len(PACKAGES) > 15
    assert problems == []

"""The serving planner predicts every seat's motion in one call.

The edge server keeps all seats' pose windows in one
``BatchMotionPredictor``.  Counting calls (not timing them) pins that
design: a return to one ``LinearMotionPredictor`` per seat fails here
on any machine.
"""

import asyncio

from repro.kernel.predict import BatchMotionPredictor
from repro.prediction.motion import LinearMotionPredictor
from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig
from repro.serve.mux import run_serve_and_mux_fleet


def _counting(monkeypatch, cls, calls, key):
    original = cls.predict

    def predict(self, *args, **kwargs):
        calls[key] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "predict", predict)


def test_lockstep_loopback_predicts_once_per_planned_slot(monkeypatch):
    calls = {"batch": 0, "scalar": 0}
    _counting(monkeypatch, BatchMotionPredictor, calls, "batch")
    _counting(monkeypatch, LinearMotionPredictor, calls, "scalar")
    serve_config = serve_setup1(
        max_users=8, duration_slots=61, seed=0, expect_clients=8,
        lockstep=True,
    )
    result, fleet = asyncio.run(
        run_serve_and_mux_fleet(
            serve_config, LoadGenConfig(num_clients=8, seed=0)
        )
    )
    assert result.slots == 60
    assert len(fleet.admitted) == 8
    assert calls == {"batch": result.slots, "scalar": 0}

"""Observability must not change what it observes.

Three guarantees from the ISSUE: (1) a seeded in-process experiment
produces bit-identical results with observability on and off; (2) a
seeded lockstep loopback run produces identical planner outcomes with
observability on and off; (3) the slot-pipeline overhead of full
observability stays within the benchmark budget (with an absolute
floor so timer noise on sub-millisecond slots cannot flake the suite).
"""

import asyncio
from dataclasses import replace

import pytest

from repro.core import DensityValueGreedyAllocator
from repro.obs import Obs, ObsConfig
from repro.obs.spans import read_span_stream
from repro.serve.config import serve_setup1
from repro.serve.loadgen import LoadGenConfig
from repro.serve.mux import run_serve_and_mux_fleet
from repro.system import SystemExperiment, setup1_config
from repro.system.experiment import scaled_config


def _experiment_config(slots=80, seed=3):
    return scaled_config(setup1_config(seed=seed), duration_slots=slots)


class TestExperimentInertness:
    def test_seeded_run_identical_with_obs_on_and_off(self, tmp_path):
        config = _experiment_config()
        baseline = SystemExperiment(config).run_repeat(
            DensityValueGreedyAllocator(), 0
        )
        obs = Obs.from_config(
            ObsConfig(
                enabled=True,
                trace_path=str(tmp_path / "trace.jsonl"),
                sample_every=1,
            )
        )
        observed = SystemExperiment(config).run_repeat(
            DensityValueGreedyAllocator(), 0, obs=obs
        )
        obs.close()
        # Bit-identical, not approximately equal.
        assert observed.users == baseline.users

    def test_experiment_emits_virtual_clock_spans(self, tmp_path):
        config = _experiment_config(slots=40)
        obs = Obs.from_config(
            ObsConfig(
                enabled=True,
                trace_path=str(tmp_path / "trace.jsonl"),
                sample_every=1,
            )
        )
        SystemExperiment(config).run_repeat(
            DensityValueGreedyAllocator(), 0, obs=obs
        )
        obs.close()
        with open(tmp_path / "trace.jsonl", "r", encoding="utf-8") as handle:
            _, spans = read_span_stream(handle)
        assert len(spans) == config.duration_slots - 1
        # Timestamps are the run's virtual slot clock, not wall clock.
        for t, span in enumerate(spans):
            assert span.start_s == t * config.slot_s
            assert span.duration_s == pytest.approx(config.slot_s)
        page = obs.registry.render_prometheus()
        assert (
            f"repro_experiment_slots_total {config.duration_slots - 1}"
            in page
        )
        assert "repro_sched_slots_total" in page

    def test_scheduler_registry_attachment_changes_no_decision(self):
        config = _experiment_config(slots=60, seed=5)
        baseline = SystemExperiment(config).run_repeat(
            DensityValueGreedyAllocator(), 0
        )
        obs = Obs.disabled()
        experiment = SystemExperiment(config)
        mirrored = experiment.run_repeat(
            DensityValueGreedyAllocator(), 0, obs=obs
        )
        assert mirrored.users == baseline.users


class TestLoopbackInertness:
    def _run(self, obs_config, slots=16, users=4, seed=11):
        serve_config = replace(
            serve_setup1(
                max_users=users,
                duration_slots=slots,
                seed=seed,
                expect_clients=users,
                lockstep=True,
            ),
            obs=obs_config,
        )
        result, _ = asyncio.run(
            run_serve_and_mux_fleet(
                serve_config, LoadGenConfig(num_clients=users, seed=seed)
            )
        )
        return result

    def test_lockstep_run_identical_with_obs_on_and_off(self, tmp_path):
        off = self._run(ObsConfig(enabled=False))
        on = self._run(
            ObsConfig(
                enabled=True,
                trace_path=str(tmp_path / "trace.jsonl"),
                sample_every=1,
                flight_dir=str(tmp_path / "flight"),
            )
        )
        assert on.slots == off.slots
        assert on.metrics.per_user_quality() == off.metrics.per_user_quality()
        assert on.metrics.telemetry.records == off.metrics.telemetry.records
        assert on.metrics.deadline_hits == off.metrics.deadline_hits

    def test_lockstep_run_identical_with_slo_engine_enabled(self, tmp_path):
        from repro.obs.slo import SLO_BURN_METRIC, default_slo_config

        off = self._run(ObsConfig(enabled=False))
        on = self._run(
            ObsConfig(
                enabled=True,
                trace_path=str(tmp_path / "trace.jsonl"),
                sample_every=1,
                slo=default_slo_config(),
            )
        )
        # The burn-rate engine ran every slot...
        assert SLO_BURN_METRIC in on.metrics.registry.render_prometheus()
        # ...and changed nothing it observed.
        assert on.slots == off.slots
        assert on.metrics.per_user_quality() == off.metrics.per_user_quality()
        assert on.metrics.telemetry.records == off.metrics.telemetry.records
        assert on.metrics.deadline_hits == off.metrics.deadline_hits


class TestOverheadBudget:
    def test_slot_pipeline_overhead_within_budget(self):
        from repro.perf.bench import MAX_OVERHEAD_PCT, bench_obs

        # The budget with an absolute floor: on millisecond-scale slot
        # pipelines 5% is below scheduler/timer noise, so accept
        # anything within a quarter millisecond as within budget too.
        # One re-measure before failing: a genuine overhead regression
        # exceeds the budget on every run, transient machine load on
        # at most one.
        for attempt in range(2):
            run = bench_obs(users=2, slots=30, seed=0, repeats=2)
            off_ms = run["off_mean_slot_ms"]
            on_ms = run["on_mean_slot_ms"]
            budget_ms = max(
                off_ms * (1.0 + MAX_OVERHEAD_PCT / 100.0), off_ms + 0.25
            )
            if on_ms <= budget_ms:
                break
        assert on_ms <= budget_ms, (
            f"obs overhead {on_ms - off_ms:.4f} ms over a {off_ms:.4f} ms "
            f"baseline exceeds the {MAX_OVERHEAD_PCT}% budget twice"
        )
        assert run["slots"] == 30

"""Integration tests for the real-system experiment runner."""

from dataclasses import replace

import pytest

from repro.core import DensityValueGreedyAllocator, FireflyAllocator, PavqAllocator
from repro.errors import ConfigurationError
from repro.system.experiment import (
    ExperimentConfig,
    SystemExperiment,
    scaled_config,
    setup1_config,
    setup2_config,
)
from repro.system.telemetry import Telemetry


class TestConfigs:
    def test_setup1_matches_paper(self):
        config = setup1_config()
        assert config.num_users == 8
        assert config.num_routers == 1
        assert config.server_budget_mbps == 400.0
        assert config.weights.alpha == 0.1
        assert config.weights.beta == 0.5

    def test_setup2_matches_paper(self):
        config = setup2_config()
        assert config.num_users == 15
        assert config.num_routers == 2
        assert config.server_budget_mbps == 800.0
        # Setup 2's interference is strictly harsher than setup 1's.
        assert config.interference_onset > setup1_config().interference_onset

    def test_throttle_guidelines(self):
        assert set(ExperimentConfig().throttle_guidelines) == {
            40.0, 45.0, 50.0, 55.0, 60.0,
        }

    def test_scaled_config(self):
        config = scaled_config(setup1_config(), duration_slots=99)
        assert config.duration_slots == 99
        assert config.num_users == 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_users=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_routers=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(duration_slots=2)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(throttle_guidelines=())


class TestSystemExperiment:
    @pytest.fixture(scope="class")
    def small_experiment(self):
        config = scaled_config(setup1_config(seed=7), duration_slots=240)
        return SystemExperiment(config)

    def test_run_repeat_metrics(self, small_experiment):
        result = small_experiment.run_repeat(DensityValueGreedyAllocator(), repeat=0)
        assert result.num_users == 8
        for user in result.users:
            assert 0.0 <= user.quality <= 6.0
            assert user.delay >= 0.0
            assert user.fps is not None
            assert 0.0 <= user.fps <= 60.0 + 1e-9

    def test_repeats_pool(self, small_experiment):
        results = small_experiment.run(DensityValueGreedyAllocator(), repeats=2)
        assert results.num_episodes == 2
        assert results.mean_fps() is not None

    def test_compare(self, small_experiment):
        comparison = small_experiment.compare(
            {"ours": DensityValueGreedyAllocator(), "firefly": FireflyAllocator()},
            repeats=1,
        )
        assert set(comparison) == {"ours", "firefly"}

    def test_repeat_deterministic(self):
        config = scaled_config(setup1_config(seed=11), duration_slots=180)
        a = SystemExperiment(config).run_repeat(DensityValueGreedyAllocator(), 0)
        b = SystemExperiment(config).run_repeat(DensityValueGreedyAllocator(), 0)
        assert a.users[0].qoe == pytest.approx(b.users[0].qoe)
        assert a.mean_fps() == pytest.approx(b.mean_fps())

    def test_validation(self, small_experiment):
        with pytest.raises(ConfigurationError):
            small_experiment.run(DensityValueGreedyAllocator(), repeats=0)
        with pytest.raises(ConfigurationError):
            small_experiment.compare({})


class TestUplink:
    """The in-memory uplink carries the phones' state to the server."""

    def test_static_dedup_is_built_from_acks(self):
        """Dedup state is built from the delivery acks; a static scene
        must offer far less traffic than a live one (moving users
        still fetch new cells, so it does not reach zero)."""
        def total_demand(refresh):
            config = replace(
                scaled_config(setup1_config(seed=12), duration_slots=240),
                content_refresh_slots=refresh,
            )
            telemetry = Telemetry()
            SystemExperiment(config).run_repeat(
                DensityValueGreedyAllocator(), 0, telemetry=telemetry
            )
            return sum(r.demand_mbps for r in telemetry.records)

        assert total_demand(0) < 0.7 * total_demand(1)

    def test_uploaded_poses_feed_prediction(self):
        """Coverage stays high, so the uploaded poses feed prediction."""
        config = scaled_config(setup1_config(seed=13), duration_slots=240)
        telemetry = Telemetry()
        SystemExperiment(config).run_repeat(
            DensityValueGreedyAllocator(), 0, telemetry=telemetry
        )
        transmitted = [r for r in telemetry.records if r.level > 0]
        covered = sum(1 for r in transmitted if r.covered)
        assert covered / len(transmitted) > 0.5


class TestSystemShape:
    """The Fig. 7 ordering on a short but meaningful run."""

    @pytest.fixture(scope="class")
    def comparison(self):
        config = scaled_config(setup1_config(seed=0), duration_slots=600)
        experiment = SystemExperiment(config)
        return experiment.compare(
            {
                "ours": DensityValueGreedyAllocator(),
                "pavq": PavqAllocator(),
                "firefly": FireflyAllocator(),
            },
            repeats=2,
        )

    def test_ours_best_qoe(self, comparison):
        ours = comparison["ours"].mean("qoe")
        assert ours > comparison["pavq"].mean("qoe")
        assert ours > comparison["firefly"].mean("qoe")

    def test_ours_best_fps(self, comparison):
        ours = comparison["ours"].mean_fps()
        assert ours >= comparison["firefly"].mean_fps() - 1e-9

    def test_ours_lowest_variance(self, comparison):
        ours = comparison["ours"].mean("variance")
        assert ours <= comparison["pavq"].mean("variance")
        assert ours <= comparison["firefly"].mean("variance")

"""Tests for the Section VIII online rendering pipeline model."""

import pytest

from repro.errors import ConfigurationError
from repro.system.rendering import (
    GpuSpec,
    OnlineRenderingPipeline,
    RenderJob,
    min_gpus_for,
)

SLOT = 1.0 / 60.0


def jobs(count, bits=100_000.0, level=3):
    return [RenderJob(bits, level) for _ in range(count)]


class TestOnlineRenderingPipeline:
    def test_empty_workload(self):
        assert OnlineRenderingPipeline().makespan_s([]) == 0.0
        assert OnlineRenderingPipeline().fits_in_slot([])

    def test_render_bound_makespan(self):
        spec = GpuSpec(render_ms_per_tile=2.0, encoder_sessions=8, encode_mbps=1e6)
        pipeline = OnlineRenderingPipeline(num_gpus=1, spec=spec)
        # 4 tiles x 2 ms serial rendering = 8 ms, encoding negligible.
        assert pipeline.makespan_s(jobs(4)) == pytest.approx(0.008)

    def test_encode_bound_makespan(self):
        spec = GpuSpec(render_ms_per_tile=0.001, encoder_sessions=1, encode_mbps=100.0)
        pipeline = OnlineRenderingPipeline(num_gpus=1, spec=spec)
        # 4 x 1 Mbit at 100 Mbps on one session = 40 ms.
        assert pipeline.makespan_s(jobs(4, bits=1e6)) == pytest.approx(0.04)

    def test_more_gpus_reduce_makespan(self):
        one = OnlineRenderingPipeline(num_gpus=1)
        four = OnlineRenderingPipeline(num_gpus=4)
        workload = jobs(16, bits=500_000.0)
        assert four.makespan_s(workload) < one.makespan_s(workload)

    def test_fits_in_slot_boundary(self):
        spec = GpuSpec(render_ms_per_tile=4.0, encoder_sessions=8, encode_mbps=1e6)
        pipeline = OnlineRenderingPipeline(num_gpus=1, spec=spec)
        assert pipeline.fits_in_slot(jobs(4), slot_s=0.016)
        assert not pipeline.fits_in_slot(jobs(5), slot_s=0.016)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OnlineRenderingPipeline(num_gpus=0)
        with pytest.raises(ConfigurationError):
            GpuSpec(render_ms_per_tile=0.0)
        with pytest.raises(ConfigurationError):
            GpuSpec(encoder_sessions=0)
        with pytest.raises(ConfigurationError):
            GpuSpec(encode_mbps=0.0)
        with pytest.raises(ConfigurationError):
            RenderJob(-1.0, 1)
        with pytest.raises(ConfigurationError):
            RenderJob(1.0, 0)


class TestMinGpusFor:
    def test_small_class_needs_few_gpus(self):
        assert min_gpus_for(4, tiles_per_user=4, tile_bits=120_000.0, level=3) <= 4

    def test_monotone_in_users(self):
        a = min_gpus_for(4, 4, 150_000.0, 3)
        b = min_gpus_for(15, 4, 150_000.0, 3)
        assert b >= a

    def test_paper_testbed_scale(self):
        """The paper's 4-GPU workstation handling 15 users online.

        Section VIII doubts a single GPU can do it; the model should
        show a multi-GPU pool is required but a modest one suffices.
        """
        needed = min_gpus_for(15, tiles_per_user=4, tile_bits=150_000.0, level=4)
        assert 1 <= needed <= 16

    def test_infeasible_returns_zero(self):
        # A single tile larger than a slot's encode capacity at any
        # pool size can never fit (per-GPU sessions bound).
        spec = GpuSpec(render_ms_per_tile=0.1, encoder_sessions=1, encode_mbps=1.0)
        assert (
            min_gpus_for(1, 1, 1e9, 1, spec=spec, max_gpus=4) == 0
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            min_gpus_for(0, 4, 1e5, 3)

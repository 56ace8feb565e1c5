"""Tests for the synthetic network trace generators."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceError
from repro.traces.network import (
    FccWebBrowsingModel,
    LteMobilityModel,
    NetworkTrace,
    TraceCatalog,
    TraceSegment,
)
from repro.units import TRACE_MAX_MBPS, TRACE_MIN_MBPS


class TestTraceSegment:
    def test_valid(self):
        seg = TraceSegment(2.0, 50.0)
        assert seg.duration_s == 2.0

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            TraceSegment(0.0, 50.0)
        with pytest.raises(ConfigurationError):
            TraceSegment(1.0, -1.0)


class TestNetworkTrace:
    def trace(self):
        return NetworkTrace(
            [TraceSegment(1.0, 30.0), TraceSegment(2.0, 60.0), TraceSegment(1.0, 45.0)]
        )

    def test_duration(self):
        assert self.trace().duration_s == pytest.approx(4.0)

    def test_requires_segments(self):
        with pytest.raises(TraceError):
            NetworkTrace([])

    def test_to_slots_shares_segment_rate(self):
        """Section IV: consecutive slots share a segment's bandwidth."""
        trace = self.trace()
        slots = trace.to_slots(slot_s=0.5)
        assert slots.tolist() == [30.0, 30.0, 60.0, 60.0, 60.0, 60.0, 45.0, 45.0]

    def test_to_slots_rejects_bad_slot(self):
        with pytest.raises(ConfigurationError):
            self.trace().to_slots(0.0)

    def test_clamped(self):
        trace = NetworkTrace([TraceSegment(1.0, 5.0), TraceSegment(1.0, 500.0)])
        clamped = trace.clamped()
        assert clamped.segments[0].mbps == TRACE_MIN_MBPS
        assert clamped.segments[1].mbps == TRACE_MAX_MBPS

    def test_clamped_rejects_inverted_range(self):
        with pytest.raises(ConfigurationError):
            self.trace().clamped(100.0, 20.0)


class TestGenerators:
    @pytest.mark.parametrize("model_cls", [FccWebBrowsingModel, LteMobilityModel])
    def test_traces_clamped_and_full_length(self, model_cls, rng):
        trace = model_cls().generate(rng, duration_s=120.0)
        assert trace.duration_s == pytest.approx(120.0)
        for seg in trace.segments:
            assert TRACE_MIN_MBPS <= seg.mbps <= TRACE_MAX_MBPS

    @pytest.mark.parametrize("model_cls", [FccWebBrowsingModel, LteMobilityModel])
    def test_deterministic_given_seed(self, model_cls):
        a = model_cls().generate(np.random.default_rng(7), duration_s=60.0)
        b = model_cls().generate(np.random.default_rng(7), duration_s=60.0)
        assert [s.mbps for s in a.segments] == [s.mbps for s in b.segments]

    def test_multi_second_holds(self, rng):
        """Section IV: each throughput point lasts several seconds."""
        trace = FccWebBrowsingModel().generate(rng, duration_s=300.0)
        holds = [s.duration_s for s in trace.segments[:-1]]
        assert np.mean(holds) >= 1.0

    def test_lte_more_variable_than_fcc(self):
        """LTE traces vary more *within a trace* than fixed broadband.

        FCC traces sit near a subscribed tier; LTE traces wander with
        mobility.  (Across traces FCC also varies — different tiers —
        so the meaningful comparison is per-trace temporal CV.)
        """
        def mean_within_trace_cv(model, seed):
            cvs = []
            for k in range(20):
                trace = model.generate(np.random.default_rng((seed, k)), 300.0)
                rates = np.array([s.mbps for s in trace.segments])
                cvs.append(rates.std() / rates.mean())
            return float(np.mean(cvs))

        assert mean_within_trace_cv(LteMobilityModel(), 1) > mean_within_trace_cv(
            FccWebBrowsingModel(), 1
        )

    def test_generator_validation(self, rng):
        with pytest.raises(ConfigurationError):
            FccWebBrowsingModel().generate(rng, duration_s=0.0)
        with pytest.raises(ConfigurationError):
            FccWebBrowsingModel(dip_probability=1.5)
        with pytest.raises(ConfigurationError):
            LteMobilityModel(handover_probability=-0.1)


class TestTraceCatalog:
    def test_half_fcc_half_lte(self):
        catalog = TraceCatalog(seed=0, duration_s=30.0)
        names = [catalog.trace_for(u).name for u in range(6)]
        assert all(n.startswith("fcc") for n in names[::2])
        assert all(n.startswith("lte") for n in names[1::2])

    def test_deterministic(self):
        a = TraceCatalog(seed=3, duration_s=30.0).trace_for(2, episode=1)
        b = TraceCatalog(seed=3, duration_s=30.0).trace_for(2, episode=1)
        assert [s.mbps for s in a.segments] == [s.mbps for s in b.segments]

    def test_lte_pool_reuse(self):
        """The small Ghent pool is reused across users (Section IV)."""
        catalog = TraceCatalog(seed=0, duration_s=30.0, lte_pool_size=2)
        names = {catalog.trace_for(u).name for u in range(1, 40, 2)}
        assert len(names) <= 2

    def test_episodes_differ_for_fcc_users(self):
        catalog = TraceCatalog(seed=0, duration_s=30.0)
        a = catalog.trace_for(0, episode=0)
        b = catalog.trace_for(0, episode=1)
        assert [s.mbps for s in a.segments] != [s.mbps for s in b.segments]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TraceCatalog(lte_pool_size=0)
        catalog = TraceCatalog(duration_s=30.0)
        with pytest.raises(ConfigurationError):
            catalog.trace_for(-1)

"""Tests for the RTP-like transport."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, TransportError
from repro.system.transport import RtpChannel


class TestRtpChannel:
    def test_packets_for(self):
        channel = RtpChannel(packet_bits=12_000.0)
        assert channel.packets_for(0.0) == 0
        assert channel.packets_for(1.0) == 1
        assert channel.packets_for(12_000.0) == 1
        assert channel.packets_for(12_001.0) == 2

    def test_packets_rejects_negative(self):
        with pytest.raises(TransportError):
            RtpChannel().packets_for(-1.0)

    def test_loss_floor_on_clean_link(self):
        channel = RtpChannel(base_loss=0.001, congestion_loss=0.25)
        assert channel.loss_probability(10.0, 50.0) == pytest.approx(0.001)

    def test_loss_grows_with_overshoot(self):
        channel = RtpChannel(base_loss=0.001, congestion_loss=0.25)
        mild = channel.loss_probability(55.0, 50.0)
        severe = channel.loss_probability(100.0, 50.0)
        assert 0.001 < mild < severe
        assert severe == pytest.approx(0.001 + 0.25)

    def test_loss_capped(self):
        channel = RtpChannel(base_loss=0.9, congestion_loss=1.0)
        assert channel.loss_probability(1000.0, 1.0) <= 0.99

    def test_idle_flow_no_loss(self):
        assert RtpChannel().loss_probability(0.0, 50.0) == 0.0

    def test_transmit_empty_bundle(self, rng):
        result = RtpChannel().transmit([], 0.0, 50.0, rng)
        assert result.duration_s == 0.0
        assert result.packets_sent == 0
        assert result.loss_ratio == 0.0

    def test_transmit_duration(self, rng):
        channel = RtpChannel(base_loss=0.0)
        # 1 Mbit at 50 Mbps = 20 ms.
        result = channel.transmit([1e6], 1.0, 50.0, rng)
        assert result.duration_s == pytest.approx(0.02)

    def test_transmit_counts_conserved(self, rng):
        channel = RtpChannel(base_loss=0.3)
        tile_bits = [50_000.0, 80_000.0, 20_000.0]
        result = channel.transmit(tile_bits, 9.0, 10.0, rng)
        expected_packets = sum(channel.packets_for(b) for b in tile_bits)
        assert result.packets_sent == expected_packets
        assert 0 <= result.packets_lost <= result.packets_sent
        assert all(0 <= i < len(tile_bits) for i in result.lost_tile_indices)

    def test_lossless_when_base_zero_and_no_overshoot(self, rng):
        channel = RtpChannel(base_loss=0.0)
        result = channel.transmit([1e5, 1e5], 10.0, 50.0, rng)
        assert result.packets_lost == 0
        assert result.lost_tile_indices == tuple()

    def test_heavy_overshoot_loses_tiles(self):
        channel = RtpChannel(base_loss=0.0, congestion_loss=0.5)
        rng = np.random.default_rng(0)
        result = channel.transmit([1e6] * 4, 100.0, 10.0, rng)
        assert result.packets_lost > 0
        assert len(result.lost_tile_indices) > 0

    def test_starved_link_loses_everything(self, rng):
        result = RtpChannel().transmit([1e5, 1e5], 10.0, 0.0, rng)
        # The starved duration is a bounded worst case, never inf:
        # downstream delay clamps, wire encodings, and percentile math
        # all rely on finite values.
        assert math.isfinite(result.duration_s)
        assert result.duration_s == pytest.approx(60.0)
        assert result.packets_lost == result.packets_sent
        assert result.lost_tile_indices == (0, 1)
        assert result.loss_ratio == pytest.approx(1.0)

    def test_starved_duration_configurable(self, rng):
        channel = RtpChannel(starved_duration_s=2.5)
        result = channel.transmit([1e5], 10.0, 0.0, rng)
        assert result.duration_s == pytest.approx(2.5)

    def test_empty_bundle_on_starved_link(self, rng):
        """No payload: zero duration and zero loss even at zero rate."""
        result = RtpChannel().transmit([], 0.0, 0.0, rng)
        assert result.duration_s == 0.0
        assert result.packets_sent == 0
        assert result.packets_lost == 0
        assert result.loss_ratio == 0.0

    def test_zero_sized_tiles_in_bundle(self, rng):
        """Zero-bit tiles ride along without packets or loss."""
        channel = RtpChannel(base_loss=0.0)
        result = channel.transmit([0.0, 1e5, 0.0], 10.0, 50.0, rng)
        assert result.packets_sent == channel.packets_for(1e5)
        assert math.isfinite(result.duration_s)
        assert result.loss_ratio == 0.0

    def test_sub_packet_tiles_well_defined(self, rng):
        """Tiles far below one packet still get one packet each."""
        channel = RtpChannel(packet_bits=12_000.0, base_loss=0.0)
        tile_bits = [1.0, 7.5, 100.0]
        result = channel.transmit(tile_bits, 0.001, 50.0, rng)
        assert result.packets_sent == 3
        assert result.packets_lost == 0
        assert math.isfinite(result.duration_s)
        assert result.duration_s == pytest.approx(sum(tile_bits) / 50e6)
        assert 0.0 <= result.loss_ratio <= 1.0

    def test_total_loss_marks_every_tile(self):
        """At the loss-probability cap every tile is marked lost."""
        channel = RtpChannel(base_loss=0.99, congestion_loss=1.0)
        rng = np.random.default_rng(12345)
        tile_bits = [1e6] * 5
        result = channel.transmit(tile_bits, 100.0, 1.0, rng)
        assert math.isfinite(result.duration_s)
        assert 0.0 <= result.loss_ratio <= 1.0
        # With p = 0.99 over ~84 packets/tile, every tile loses packets.
        assert result.lost_tile_indices == tuple(range(len(tile_bits)))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RtpChannel(packet_bits=0.0)
        with pytest.raises(ConfigurationError):
            RtpChannel(base_loss=1.0)
        with pytest.raises(ConfigurationError):
            RtpChannel(congestion_loss=1.5)
        with pytest.raises(ConfigurationError):
            RtpChannel(starved_duration_s=0.0)
        with pytest.raises(ConfigurationError):
            RtpChannel(starved_duration_s=float("inf"))

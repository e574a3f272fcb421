"""Tests for the PCIe transfer model."""

import pytest

from repro.model.gpu.transfers import PcieModel


class TestEffectiveBandwidth:
    def test_single_device_limited_by_link(self):
        pcie = PcieModel()
        assert pcie.effective_bandwidth(1) <= pcie.link_bandwidth_b_s

    def test_contention_reduces_per_device_rate(self):
        """Section 6.2: devices share the host's aggregate bandwidth."""
        pcie = PcieModel()
        assert pcie.effective_bandwidth(8) < pcie.effective_bandwidth(2)

    def test_invalid_device_count(self):
        with pytest.raises(ValueError):
            PcieModel().effective_bandwidth(0)


class TestTransferSeconds:
    def test_latency_dominates_small_payloads(self):
        pcie = PcieModel()
        t = pcie.transfer_seconds(1024.0, 1, n_transfers=10)
        assert t == pytest.approx(10 * pcie.transfer_latency_s, rel=0.01)

    def test_bandwidth_dominates_large_payloads(self):
        pcie = PcieModel()
        payload = 1e9
        t = pcie.transfer_seconds(payload, 1, n_transfers=1)
        assert t == pytest.approx(payload / pcie.effective_bandwidth(1), rel=0.01)

    def test_zero_transfers_is_free(self):
        assert PcieModel().transfer_seconds(0.0, 4, 0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PcieModel().transfer_seconds(-1.0, 1)

    def test_more_devices_slower_same_payload(self):
        pcie = PcieModel()
        assert pcie.transfer_seconds(1e8, 8) > pcie.transfer_seconds(1e8, 1)


class TestUtilization:
    def test_underutilization_for_chunked_transfers(self):
        """Many small memcpys never saturate the link — the paper's
        'bandwidth is under-utilized' observation."""
        pcie = PcieModel()
        payload = 1e6
        elapsed = pcie.transfer_seconds(payload, 8, n_transfers=12)
        assert pcie.utilization(payload, elapsed, 8) < 0.5

    def test_bounded_by_one(self):
        assert PcieModel().utilization(1e12, 1e-3, 1) == 1.0

    def test_zero_elapsed(self):
        assert PcieModel().utilization(1e6, 0.0, 1) == 0.0

"""Tests for the multi-node scale-out estimator (Section 4.1 contrast)."""

import pytest

from repro.model.cpu.multinode import (
    NetworkModel,
    _cross_node_fraction,
    simulate_multinode_run,
)


class TestGeometry:
    def test_single_node_has_no_cross_traffic(self):
        r = simulate_multinode_run("lj", 2_048_000, 1)
        assert r.cross_node_fraction == 0.0
        assert r.total_ranks == 64

    def test_cross_fraction_from_block_side(self):
        assert _cross_node_fraction(64) == pytest.approx(0.25)
        assert _cross_node_fraction(8) == pytest.approx(0.5)
        assert _cross_node_fraction(1) == 1.0

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            simulate_multinode_run("lj", 32_000, 0)

    def test_custom_ranks_per_node(self):
        r = simulate_multinode_run("lj", 2_048_000, 2, ranks_per_node=32)
        assert r.total_ranks == 64


class TestPaperContrast:
    def test_lj_64_nodes_efficiency_near_33pct(self):
        """Section 4.1's quoted figure: ~33% parallel efficiency for LJ
        strong-scaled to 64 nodes."""
        base = simulate_multinode_run("lj", 2_048_000, 1)
        wide = simulate_multinode_run("lj", 2_048_000, 64)
        eff = wide.ts_per_s / (base.ts_per_s * 64)
        assert eff == pytest.approx(0.33, abs=0.08)

    def test_efficiency_decays_with_node_count(self):
        base = simulate_multinode_run("lj", 2_048_000, 1)
        effs = []
        for n in (2, 8, 16, 64):
            r = simulate_multinode_run("lj", 2_048_000, n)
            effs.append(r.ts_per_s / (base.ts_per_s * n))
        assert effs == sorted(effs, reverse=True)

    def test_scale_out_still_gains_absolute_throughput(self):
        base = simulate_multinode_run("eam", 2_048_000, 1)
        wide = simulate_multinode_run("eam", 2_048_000, 16)
        assert wide.ts_per_s > base.ts_per_s

    def test_rhodo_kspace_pays_network_all_to_all(self):
        base = simulate_multinode_run("rhodo", 2_048_000, 8)
        tight = simulate_multinode_run("rhodo", 2_048_000, 8, kspace_error=1e-7)
        assert tight.ts_per_s < 0.5 * base.ts_per_s

    def test_faster_network_helps(self):
        slow = simulate_multinode_run("lj", 2_048_000, 16)
        fast = simulate_multinode_run(
            "lj",
            2_048_000,
            16,
            network=NetworkModel(bandwidth_b_s=1e9),
        )
        assert fast.ts_per_s > slow.ts_per_s

    def test_single_node_matches_intra_node_model_scale(self):
        """1-node multinode result is in the same regime as the
        single-node executor (same compute, comm modelled similarly)."""
        from repro.model import simulate_cpu_run

        multi = simulate_multinode_run("lj", 2_048_000, 1)
        single = simulate_cpu_run("lj", 2_048_000, 64)
        assert multi.ts_per_s == pytest.approx(single.ts_per_s, rel=0.15)

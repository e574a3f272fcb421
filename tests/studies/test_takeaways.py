"""Tests for the Section 10 takeaway projections."""

import pytest

from repro.studies.takeaways import (
    GPU_IMPROVEMENTS,
    commodity_fleet_gap,
    dsa_gap,
    project_cpu_balance,
    project_gpu_improvements,
)


class TestGpuProjections:
    @pytest.fixture(scope="class")
    def projections(self):
        return project_gpu_improvements()

    def test_baseline_is_reference(self, projections):
        assert projections["baseline"]["speedup"] == pytest.approx(1.0)

    def test_every_direction_helps(self, projections):
        for name, metrics in projections.items():
            if name == "baseline":
                continue
            assert metrics["speedup"] >= 1.0, name

    def test_porting_fixes_is_the_biggest_single_lever(self, projections):
        """Section 6.1 flags SHAKE-on-host as the next step for a reason:
        for Rhodopsin it beats interconnect and kernel-fusion fixes."""
        port = projections["port-fixes-to-gpu"]["speedup"]
        assert port > projections["nvlink-class-interconnect"]["speedup"]
        assert port > projections["fused-kernels"]["speedup"]

    def test_combined_beats_each_individual(self, projections):
        combined = projections["all-combined"]["speedup"]
        for name, metrics in projections.items():
            if name == "all-combined":
                continue
            assert combined >= metrics["speedup"]

    def test_combined_raises_utilization(self, projections):
        """Section 10: better utilization is the path — the combined
        improvements push the ~30-40% baseline well up."""
        assert (
            projections["all-combined"]["gpu_utilization"]
            > projections["baseline"]["gpu_utilization"] + 0.1
        )

    def test_improvement_catalogue_named(self):
        names = [imp.name for imp in GPU_IMPROVEMENTS]
        assert names[0] == "baseline"
        assert "all-combined" in names


class TestCpuBalance:
    def test_chute_recovers_most(self):
        """Section 10's other direction: Chute (worst imbalance) has the
        most to gain from balancing."""
        chute = project_cpu_balance("chute")
        eam = project_cpu_balance("eam")
        assert chute["speedup"] > eam["speedup"] >= 1.0

    def test_registry_restored(self):
        from repro.model.workloads import get_workload

        project_cpu_balance("chain")
        assert get_workload("chain").imbalance_amplitude > 0


class TestDsaGap:
    def test_single_node_gap_is_huge(self):
        """'We are still very far from milliseconds-scale experiments on
        commodity hardware' — a single node is 10^4x off Anton 3."""
        assert dsa_gap(2.5) > 10_000

    def test_fleet_gap_in_papers_band(self):
        """Like-for-like (512 nodes each): 'up to 1000x slower'."""
        gap = commodity_fleet_gap()
        assert 100 < gap < 2_000

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            dsa_gap(0.0)

"""Tests for the GPU kernel catalogue and cost laws."""

import pytest

from repro.model.gpu.kernels import (
    DATA_MOVEMENT_ENTRIES,
    KERNELS_BY_BENCHMARK,
    GpuKernelCoefficients,
    kernel_seconds_per_step,
    pair_kernel_names,
)
from repro.model.workloads import get_workload


class TestCatalogue:
    def test_benchmark_coverage(self):
        assert set(KERNELS_BY_BENCHMARK) == {"lj", "chain", "eam", "rhodo"}

    def test_paper_kernel_names_present(self):
        assert "k_lj_fast" in KERNELS_BY_BENCHMARK["lj"]
        assert "k_eam_fast" in KERNELS_BY_BENCHMARK["eam"]
        assert "k_energy_fast" in KERNELS_BY_BENCHMARK["eam"]
        assert "k_charmm_long" in KERNELS_BY_BENCHMARK["rhodo"]
        assert "make_rho" in KERNELS_BY_BENCHMARK["rhodo"]
        assert "particle_map" in KERNELS_BY_BENCHMARK["rhodo"]
        for kernels in KERNELS_BY_BENCHMARK.values():
            assert "calc_neigh_list_cell" in kernels

    def test_data_movement_entries(self):
        assert "[CUDA memcpy HtoD]" in DATA_MOVEMENT_ENTRIES
        assert "[CUDA memcpy DtoH]" in DATA_MOVEMENT_ENTRIES
        assert "[CUDA memset]" in DATA_MOVEMENT_ENTRIES

    def test_pair_kernel_lookup(self):
        assert pair_kernel_names("lj") == ("k_lj_fast",)
        assert pair_kernel_names("eam") == ("k_eam_fast", "k_energy_fast")
        with pytest.raises(KeyError):
            pair_kernel_names("chute")


class TestCostLaws:
    def test_chute_unsupported(self):
        with pytest.raises(KeyError, match="does not support"):
            kernel_seconds_per_step(get_workload("chute"), 1000, "single")

    def test_pair_time_linear_in_atoms(self):
        w = get_workload("lj")
        t1 = kernel_seconds_per_step(w, 10_000, "single")["k_lj_fast"]
        t2 = kernel_seconds_per_step(w, 20_000, "single")["k_lj_fast"]
        assert t2 == pytest.approx(2 * t1)

    def test_double_precision_slows_pair_kernel(self):
        w = get_workload("lj")
        single = kernel_seconds_per_step(w, 10_000, "single")["k_lj_fast"]
        double = kernel_seconds_per_step(w, 10_000, "double")["k_lj_fast"]
        assert double > 1.3 * single

    def test_eam_split_exceeds_charmm_kernel(self):
        """Section 6.1: k_eam_fast + k_energy_fast together outlast
        k_charmm_long despite EAM's smaller neighbor count... per unit
        of pair work."""
        eam_w = get_workload("eam")
        rhodo_w = get_workload("rhodo")
        n = 100_000
        eam_t = kernel_seconds_per_step(eam_w, n, "single")
        rhodo_t = kernel_seconds_per_step(rhodo_w, n, "single")
        eam_pair = eam_t["k_eam_fast"] + eam_t["k_energy_fast"]
        # Per pair interaction, the EAM kernels are less efficient.
        eam_per_pair = eam_pair / (n * eam_w.neighbors_per_atom)
        charmm_per_pair = rhodo_t["k_charmm_long"] / (n * rhodo_w.neighbors_per_atom)
        assert eam_per_pair > charmm_per_pair

    def test_grid_kernels_only_for_rhodo(self):
        lj_t = kernel_seconds_per_step(get_workload("lj"), 10_000, "single")
        assert "make_rho" not in lj_t
        rhodo_t = kernel_seconds_per_step(get_workload("rhodo"), 10_000, "single")
        assert rhodo_t["make_rho"] > 0
        assert rhodo_t["particle_map"] > 0
        assert rhodo_t["interp"] > 0

    def test_all_times_non_negative(self):
        for name in ("lj", "chain", "eam", "rhodo"):
            times = kernel_seconds_per_step(get_workload(name), 50_000, "mixed")
            assert all(v >= 0 for v in times.values())

    def test_custom_coefficients(self):
        w = get_workload("lj")
        fast = GpuKernelCoefficients(pair_per_interaction=1e-11)
        default = kernel_seconds_per_step(w, 10_000, "single")["k_lj_fast"]
        tuned = kernel_seconds_per_step(w, 10_000, "single", fast)["k_lj_fast"]
        assert tuned < default

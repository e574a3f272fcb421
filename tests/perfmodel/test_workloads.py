"""Tests for the workload parameterization."""

import numpy as np
import pytest

from repro.model.workloads import (
    GPU_COUNTS,
    RANK_COUNTS,
    SIZES_K,
    get_workload,
    workloads,
)


class TestCampaignConstants:
    def test_paper_sizes(self):
        assert SIZES_K == (32, 256, 864, 2048)

    def test_paper_rank_ladder(self):
        assert RANK_COUNTS == (1, 2, 4, 8, 16, 32, 64)

    def test_paper_gpu_ladder(self):
        assert GPU_COUNTS == (1, 2, 4, 6, 8)


class TestLookup:
    def test_all_benchmarks_present(self):
        assert set(workloads) == {"lj", "chain", "eam", "chute", "rhodo"}

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_workload("gromacs")


class TestGeometry:
    def test_cubic_box_density(self):
        w = get_workload("lj")
        lengths = w.box_lengths(32_000)
        assert np.prod(lengths) * w.number_density == pytest.approx(32_000)

    def test_chute_slab_geometry(self):
        w = get_workload("chute")
        lengths = w.box_lengths(32_000)
        assert lengths[2] == pytest.approx(w.slab_height)
        assert lengths[0] == pytest.approx(lengths[1])
        assert lengths[0] > lengths[2]  # wide, thin bed

    def test_invalid_atom_count(self):
        with pytest.raises(ValueError):
            get_workload("lj").box_lengths(0)

    def test_eam_density_is_fcc_copper(self):
        w = get_workload("eam")
        assert w.number_density == pytest.approx(4.0 / 3.615**3)


def _argon_tau_fs(sigma_angstrom=3.405, eps_over_kb=119.8, mass_amu=39.948):
    """One LJ time unit, tau = sigma sqrt(m / eps), for argon, in fs."""
    mass_kg = mass_amu * 1.66053906660e-27
    eps_j = eps_over_kb * 1.380649e-23
    return sigma_angstrom * 1e-10 * np.sqrt(mass_kg / eps_j) * 1e15


class TestTimestep:
    def test_lj_timestep_is_the_deck_dt_in_argon_units(self):
        """0.005 tau of argon (tau ~ 2.16 ps) ~ 10.8 fs."""
        assert _argon_tau_fs() == pytest.approx(2156, rel=0.01)
        assert 0.005 * _argon_tau_fs() == pytest.approx(
            get_workload("lj").timestep_fs, rel=0.01
        )


class TestDerivedQuantities:
    def test_list_neighbors_include_skin_shell(self):
        w = get_workload("lj")
        assert w.list_neighbors_per_atom == pytest.approx(55 * (2.8 / 2.5) ** 3)

    def test_newton_halves_pair_work(self):
        lj = get_workload("lj")
        chute = get_workload("chute")
        assert lj.pair_interactions_per_atom() == pytest.approx(55 / 2)
        assert chute.pair_interactions_per_atom() == pytest.approx(7.0)

    def test_memory_anchor_rhodo_2048k(self):
        """Section 4.1: the biggest experiment needs ~2.9 GB."""
        gb = get_workload("rhodo").memory_bytes(2_048_000) / 1e9
        assert 2.0 < gb < 3.5

    def test_memory_scales_linearly(self):
        w = get_workload("lj")
        assert w.memory_bytes(64_000) == pytest.approx(2 * w.memory_bytes(32_000))

    def test_imbalance_ordering_matches_paper(self):
        """Figure 4: Chain and Chute are far more imbalanced than EAM/LJ."""
        amp = {name: w.imbalance_amplitude for name, w in workloads.items()}
        assert amp["chute"] > amp["lj"]
        assert amp["chain"] > amp["lj"]
        assert amp["eam"] <= amp["lj"]

    def test_core_utilization_matches_section52(self):
        util = {name: w.core_utilization for name, w in workloads.items()}
        assert util == {
            "lj": 0.48,
            "chain": 0.56,
            "eam": 0.63,
            "chute": 0.24,
            "rhodo": 0.83,
        }

    def test_only_rhodo_has_kspace(self):
        assert get_workload("rhodo").has_kspace
        assert not any(
            w.has_kspace for name, w in workloads.items() if name != "rhodo"
        )

    def test_chute_gpu_unsupported(self):
        assert not get_workload("chute").gpu_supported

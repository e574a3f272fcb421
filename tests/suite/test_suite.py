"""Tests for the benchmark suite: builders, taxonomy, registry.

The paper's five workloads plus the Tersoff multi-body extension.
"""

import numpy as np
import pytest

from repro.suite import (
    BENCHMARK_NAMES,
    CPU_BENCHMARKS,
    GPU_BENCHMARKS,
    PAPER_BENCHMARKS,
    get_benchmark,
    registry,
)


class TestRegistry:
    def test_all_six_present(self):
        assert set(BENCHMARK_NAMES) == {
            "rhodo",
            "lj",
            "chain",
            "eam",
            "chute",
            "tersoff",
        }

    def test_paper_set_is_the_original_five(self):
        assert set(PAPER_BENCHMARKS) == {"rhodo", "lj", "chain", "eam", "chute"}

    def test_cpu_covers_the_modeled_five(self):
        """The CPU characterization (and the calibrated perf model built
        from it) spans the paper's Table 2 set; Tersoff is measured-only."""
        assert CPU_BENCHMARKS == PAPER_BENCHMARKS
        assert "tersoff" not in CPU_BENCHMARKS

    def test_gpu_excludes_chute_and_tersoff(self):
        """Section 6: the GPU package lacks the gran/hooke pair style;
        the Tersoff workload is CPU-only too."""
        assert "chute" not in GPU_BENCHMARKS
        assert "tersoff" not in GPU_BENCHMARKS
        assert set(GPU_BENCHMARKS) == {"rhodo", "lj", "chain", "eam"}

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            get_benchmark("namd")

    def test_lookup_returns_definition(self):
        assert get_benchmark("lj").name == "lj"


class TestTaxonomyTable2:
    """The Table 2 rows, verbatim."""

    def test_min_atoms_32k_everywhere(self):
        assert all(d.taxonomy.min_atoms == 32_000 for d in registry.values())

    @pytest.mark.parametrize(
        "name,cutoff,skin,neighbors",
        [
            ("rhodo", 10.0, 2.0, 440),
            ("lj", 2.5, 0.3, 55),
            ("chain", 1.12, 0.4, 5),
            ("eam", 4.95, 1.0, 45),
            ("chute", 1.0, 0.1, 7),
            # Not a Table 2 row: the Tersoff extension workload.
            ("tersoff", 3.0, 1.0, 4),
        ],
    )
    def test_cutoffs_and_neighbors(self, name, cutoff, skin, neighbors):
        tax = registry[name].taxonomy
        assert tax.cutoff == pytest.approx(cutoff)
        assert tax.neighbor_skin == pytest.approx(skin)
        assert tax.neighbors_per_atom == neighbors

    def test_only_rhodo_has_kspace(self):
        for name, definition in registry.items():
            assert definition.taxonomy.computes_long_range == (name == "rhodo")
        assert registry["rhodo"].taxonomy.kspace_style == "pppm"
        assert registry["rhodo"].taxonomy.kspace_error == pytest.approx(1e-4)

    def test_only_rhodo_uses_npt(self):
        for name, definition in registry.items():
            expected = "NPT" if name == "rhodo" else "NVE"
            assert definition.taxonomy.integration == expected

    def test_full_list_workloads_ignore_newton(self):
        # Chute (frictional history) and Tersoff (directed bond order)
        # evaluate every ordered pair, so there is no Newton saving.
        for name, definition in registry.items():
            assert definition.newton == (name not in ("chute", "tersoff"))

    def test_force_fields(self):
        assert registry["rhodo"].taxonomy.force_field == "CHARMM"
        assert registry["eam"].taxonomy.force_field == "EAM"
        assert registry["chute"].taxonomy.force_field == "gran/hooke/history"
        assert registry["tersoff"].taxonomy.force_field == "Tersoff"


class TestBuilders:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_build_and_run_short(self, name):
        sim = registry[name].build(200)
        sim.run(5)
        assert sim.counts.timesteps == 5
        assert np.all(np.isfinite(sim.system.positions))
        assert np.all(np.isfinite(sim.system.velocities))

    def test_lj_neighbors_match_table2(self):
        sim = get_benchmark("lj").build(500)
        sim.setup()
        measured = sim.neighbor.stats.last_neighbors_per_atom
        assert measured == pytest.approx(55, rel=0.06)

    def test_eam_neighbors_match_table2(self):
        sim = get_benchmark("eam").build(500)
        sim.setup()
        measured = sim.neighbor.stats.last_neighbors_per_atom
        assert measured == pytest.approx(45, rel=0.12)

    def test_chain_neighbors_close_to_table2(self):
        sim = get_benchmark("chain").build(400)
        sim.setup()
        # Small melts under-report slightly; Table 2 says 5.
        assert 2.5 <= sim.neighbor.stats.last_neighbors_per_atom <= 7.0

    def test_rhodo_stack_complete(self):
        sim = get_benchmark("rhodo").build(250)
        assert sim.kspace is not None
        assert sim.constraints is not None and sim.constraints.n_constraints > 0
        from repro.md.integrators import NoseHooverNPT

        assert isinstance(sim.integrator, NoseHooverNPT)

    def test_chute_uses_full_list_and_fixes(self):
        sim = get_benchmark("chute").build(150)
        assert sim.neighbor.full
        assert len(sim.fixes) == 2  # gravity + wall

    def test_rhodo_error_threshold_configurable(self):
        loose = get_benchmark("rhodo").build(250, kspace_error=1e-4)
        tight = get_benchmark("rhodo").build(250, kspace_error=1e-6)
        assert tight.kspace.grid_points > loose.kspace.grid_points

    def test_builds_are_deterministic(self):
        a = get_benchmark("lj").build(200, seed=9)
        b = get_benchmark("lj").build(200, seed=9)
        assert np.allclose(a.system.positions, b.system.positions)
        assert np.allclose(a.system.velocities, b.system.velocities)


class TestStability:
    def test_rhodo_runs_stably_with_shake(self):
        sim = get_benchmark("rhodo").build(250)
        sim.run(20)
        assert sim.constraints.max_violation(sim.system) < 1e-3
        assert np.isfinite(sim.total_energy())

    def test_chain_melt_survives_dynamics(self):
        sim = get_benchmark("chain").build(300)
        sim.run(50)  # FENE raises FloatingPointError on blow-up
        assert np.isfinite(sim.total_energy())

    def test_chain_melt_builds_and_runs_at_4000_beads(self):
        """Regression: the push-off's longest bond and closest contact
        are extreme values that grow with the bead count; at 4 000 two
        bonds came out beyond FENE's R0 and ``setup`` raised."""
        sim = get_benchmark("chain").build(4000)
        r0 = sim.bonded[0].r0
        bonds = sim.system.topology.bonds

        def longest_bond():
            return sim.system.box.distance(
                sim.system.positions[bonds[:, 0]], sim.system.positions[bonds[:, 1]]
            ).max()

        assert longest_bond() < r0
        for _ in range(50):
            sim.run(1)
            assert longest_bond() < r0
        assert np.isfinite(sim.total_energy())

    def test_chute_flows_downhill(self):
        sim = get_benchmark("chute").build(200)
        sim.run(400)
        # Gravity is tilted along +x: the bed drifts that way.
        assert sim.system.velocities[:, 0].mean() > 0


class TestCrossLayerConsistency:
    """Suite definitions and perf-model workloads agree where they overlap."""

    @pytest.mark.parametrize("name", CPU_BENCHMARKS)
    def test_shared_fields_in_sync(self, name):
        from repro.perfmodel.workloads import get_workload

        definition = registry[name]
        workload = get_workload(name)
        assert definition.newton == workload.newton
        assert definition.gpu_supported == workload.gpu_supported
        assert definition.timestep_fs == pytest.approx(workload.timestep_fs)
        assert definition.taxonomy.computes_long_range == workload.has_kspace
        assert definition.taxonomy.cutoff == pytest.approx(workload.cutoff)
        assert definition.taxonomy.neighbor_skin == pytest.approx(workload.skin)
        assert definition.taxonomy.neighbors_per_atom == pytest.approx(
            workload.neighbors_per_atom
        )

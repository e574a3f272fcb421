"""Tests for the Table 2 / Table 3 reproductions."""

import pytest

from repro.figures import table2, table3


class TestTable2:
    def test_columns_in_paper_order(self):
        data = table2.generate()
        assert list(data.series) == ["rhodo", "lj", "chain", "eam", "chute"]

    def test_row_values_match_paper(self):
        data = table2.generate()
        assert data.series["lj"]["Cutoff"] == "2.5 sigma"
        assert data.series["lj"]["Neighbors/atom"] == "55"
        assert data.series["rhodo"]["kspace_style"] == "pppm"
        assert data.series["rhodo"]["Kspace error"] == "1.0e-04"
        assert data.series["rhodo"]["pair_modify"] == "arithmetic"
        assert data.series["chute"]["Force field"] == "gran/hooke/history"
        assert data.series["eam"]["Integration"] == "NVE"

    def test_render_contains_grid(self):
        out = table2.generate().render()
        assert "Table 2" in out
        assert "Neighbors/atom" in out
        assert "rhodo" in out and "chute" in out

    def test_measured_neighbors_derive_from_geometry(self):
        """Table 2's neighbors/atom falls out of density x cutoff in the
        functional engine (small systems under-report a little)."""
        measured = table2.measure_neighbors("lj", 500)
        assert measured == pytest.approx(55, rel=0.06)
        measured = table2.measure_neighbors("eam", 500)
        assert measured == pytest.approx(45, rel=0.12)


class TestTable3:
    def test_sections_present(self):
        data = table3.generate()
        assert set(data.series) == {"cpu_specs", "gpu_specs", "instance_specs"}

    def test_render_contains_models(self):
        out = table3.generate().render()
        assert "Intel Xeon Platinum 8358" in out
        assert "Intel Xeon Platinum 8167M" in out
        assert "NVIDIA V100" in out
        assert "1024 GB DDR4" in out


class TestTable2BulkRhodo:
    def test_rhodo_neighbors_at_full_cutoff(self):
        """At liquid-water atom density with the full 10 Angstrom cutoff
        the proxy measures ~420 neighbors/atom — within 5% of Table 2's
        440 (the all-atom system is slightly denser and adds
        intramolecular partners)."""
        from repro.suite import get_benchmark

        sim = get_benchmark("rhodo").build(1536, n_solute_beads=0)
        sim.setup()
        assert sim.potentials[0].cutoff == pytest.approx(10.0)
        measured = sim.neighbor.neighbors_per_atom()
        assert measured == pytest.approx(440, rel=0.07)

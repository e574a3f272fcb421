"""The declarative campaign API: spec parsing, expansion, dedup accounting.

Tentpole of the campaign-orchestrator PR (ISSUE 10): one TOML spec
expands into a validated job matrix, runs through the batch service,
and lands as a merged ``repro-bench-report/2`` record whose dedup
block explains how much execution the content-address layer saved.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignError,
    CampaignSpec,
    load_campaign,
    parse_campaign,
    run_campaign,
)
from repro.report import validate_report

GOOD_SPEC = """
[campaign]
name = "smoke"
out = "BENCH_campaign.json"
pool_workers = 2

[base]
benchmark = "lj"
n_atoms = 150
steps = 5

[sweep]
precision = ["single", "double"]
workers = [1, 2]
"""


class TestParsing:
    def test_good_spec_round_trips(self):
        spec = parse_campaign(GOOD_SPEC)
        assert spec.name == "smoke"
        assert spec.n_cells == 4
        assert list(spec.axes) == ["precision", "workers"]
        assert spec.axes["workers"] == (1, 2)
        assert len(spec.source_sha256) == 64

    def test_expansion_order_is_last_axis_fastest(self):
        jobs = parse_campaign(GOOD_SPEC).expand()
        coords = [(j.precision, j.workers) for j in jobs]
        assert coords == [
            ("single", 1), ("single", 2), ("double", 1), ("double", 2),
        ]

    def test_figures_string_coerces_to_list(self):
        spec = parse_campaign(
            '[campaign]\nname = "x"\nfigures = "table2"\n'
            '[base]\nbenchmark = "lj"\n'
        )
        assert spec.figures == ("table2",)

    def test_load_campaign_reads_file(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(GOOD_SPEC)
        assert load_campaign(path).n_cells == 4

    def test_invalid_toml_rejected(self):
        with pytest.raises(CampaignError):
            parse_campaign("[campaign\nname =")

    def test_duplicate_key_rejected_with_line_number(self):
        with pytest.raises(CampaignError, match="invalid TOML.*line 3"):
            parse_campaign('[campaign]\nname = "x"\nname = "y"\n')

    def test_duplicate_table_rejected(self):
        with pytest.raises(CampaignError, match="invalid TOML.*twice"):
            parse_campaign('[campaign]\nname = "x"\n[campaign]\nout = "o"\n')

    def test_garbage_line_rejected(self):
        with pytest.raises(CampaignError, match="invalid TOML.*line 2"):
            parse_campaign("[campaign]\nnot a key value line\n")


#: Every spec under campaigns/ with the cell count its header documents.
SHIPPED_CELLS = {
    "backend_matrix.toml": 18,
    "precision_drift.toml": 6,
    "precision_sweep.toml": 6,
}
CAMPAIGNS_DIR = Path(__file__).resolve().parents[2] / "campaigns"


@pytest.mark.parametrize(
    "path", sorted(CAMPAIGNS_DIR.glob("*.toml")), ids=lambda path: path.name
)
def test_shipped_spec_loads_and_expands(path):
    spec = load_campaign(path)
    assert spec.n_cells == SHIPPED_CELLS[path.name]
    assert len(spec.expand()) == spec.n_cells


class TestValidation:
    def test_empty_sweep_axis_rejected(self):
        with pytest.raises(CampaignError, match=r"axis 'workers' is empty"):
            parse_campaign(
                '[campaign]\nname = "x"\n[base]\nbenchmark = "lj"\n'
                "[sweep]\nworkers = []\n"
            )

    def test_axis_duplicating_base_key_rejected(self):
        with pytest.raises(CampaignError, match="duplicates a \\[base\\] key"):
            parse_campaign(
                '[campaign]\nname = "x"\n'
                '[base]\nbenchmark = "lj"\nsteps = 10\n'
                "[sweep]\nsteps = [10, 20]\n"
            )

    def test_unknown_base_field_rejected(self):
        with pytest.raises(CampaignError, match=r"\[base\] unknown field"):
            parse_campaign(
                '[campaign]\nname = "x"\n'
                '[base]\nbenchmark = "lj"\ntimestep = 0.001\n'
            )

    def test_unknown_sweep_axis_rejected(self):
        with pytest.raises(CampaignError, match=r"\[sweep\] unknown axis"):
            parse_campaign(
                '[campaign]\nname = "x"\n[base]\nbenchmark = "lj"\n'
                "[sweep]\ncutoff = [2.5, 3.0]\n"
            )

    def test_unknown_campaign_field_rejected(self):
        with pytest.raises(CampaignError, match=r"\[campaign\] unknown field"):
            parse_campaign('[campaign]\nname = "x"\nretries = 3\n')

    def test_unknown_table_rejected(self):
        with pytest.raises(CampaignError, match="unknown table"):
            parse_campaign('[campaign]\nname = "x"\n[extra]\nfoo = 1\n')

    def test_missing_name_rejected(self):
        with pytest.raises(CampaignError, match="name"):
            parse_campaign('[base]\nbenchmark = "lj"\n')

    def test_non_list_axis_rejected(self):
        with pytest.raises(CampaignError, match="must be a list"):
            CampaignSpec(name="x", base={}, sweep={"workers": 2})

    def test_problems_are_aggregated(self):
        with pytest.raises(CampaignError, match="unknown field.*empty"):
            parse_campaign(
                '[campaign]\nname = "x"\n'
                "[base]\nwavelength = 5\n"
                "[sweep]\nseed = []\n"
            )

    def test_bad_cell_names_its_coordinates(self):
        # steps = 0 passes table validation but fails JobSpec's own check;
        # the error must say which sweep cell produced it.
        with pytest.raises(CampaignError, match=r"cell \(steps=0\)"):
            parse_campaign(
                '[campaign]\nname = "x"\n[base]\nbenchmark = "lj"\n'
                "[sweep]\nsteps = [0]\n"
            ).expand()

    def test_bad_backend_cell_fails_at_expansion(self):
        """A backend typo is refused before any pool boots, naming the
        cell that carries it."""
        with pytest.raises(CampaignError, match=r"cell \(backend='cudaa'\).*backend"):
            parse_campaign(
                '[campaign]\nname = "x"\n[base]\nbenchmark = "lj"\n'
                '[sweep]\nbackend = ["numpy_fast", "cudaa"]\n'
            ).expand()

    def test_pool_workers_must_be_positive(self):
        with pytest.raises(CampaignError, match="pool_workers"):
            CampaignSpec(name="x", base={}, sweep={}, pool_workers=0)


class TestRunCampaign:
    def test_sweep_runs_with_dedup_and_validating_report(self, tmp_path):
        """The acceptance path: 2x2 matrix, >=1 dedup hit, valid record.

        ``workers`` is excluded from the job content address, so the
        two worker settings per precision collapse onto one execution
        each: 4 cells, 2 unique addresses, 2 dedup hits.
        """
        spec = parse_campaign(GOOD_SPEC)
        out = tmp_path / "BENCH_campaign.json"
        report = run_campaign(spec, out=out, timeout=600.0)

        assert validate_report(report) is report
        assert report["kind"] == "campaign"
        on_disk = json.loads(out.read_text())
        assert on_disk["dedup"] == report["dedup"]

        dedup = report["dedup"]
        assert dedup["cells"] == 4
        assert dedup["unique_addresses"] == 2
        assert dedup["collapsed_cells"] == 2
        assert dedup["dedup_hits"] >= 1
        assert dedup["dedup_hits"] == dedup["coalesced"] + dedup["served_cached"]

        rows = report["cells"]
        assert len(rows) == 4
        # Collapsed cells must agree bitwise with the cell they
        # collapsed onto: same content address -> same state digest.
        by_key = {}
        for row in rows:
            by_key.setdefault(row["cache_key"], set()).add(row["state_digest"])
        assert len(by_key) == 2
        assert all(len(digests) == 1 for digests in by_key.values())
        # The campaign block carries provenance back to the spec text.
        assert report["campaign"]["source_sha256"] == spec.source_sha256
        assert report["campaign"]["axes"]["workers"] == [1, 2]
        assert sorted(report["precision"]) == ["double", "single"]

    def test_record_claims_no_energy_provider(self, tmp_path):
        """A campaign measures no joules, so its record names no power
        provider — not the one this host would have sampled with."""
        spec = CampaignSpec(
            name="no-energy",
            base={"benchmark": "lj", "n_atoms": 150, "steps": 2},
            sweep={},
        )
        report = run_campaign(spec, out=tmp_path / "report.json", timeout=600.0)
        assert report["energy"] == {"provider": "none", "kind": "unavailable"}

    def test_record_names_the_request_get_backend_answers(self, tmp_path):
        """A spec with no ``backend`` key asks for the default, and the
        record says which (not the string "None")."""
        spec = CampaignSpec(
            name="default-backend",
            base={"benchmark": "lj", "n_atoms": 150, "steps": 2},
            sweep={"seed": [1, 2]},
        )
        out = tmp_path / "report.json"
        report = run_campaign(spec, out=out, timeout=600.0)
        expected = {"requested": "numpy_fast", "resolved": "numpy_fast"}
        assert report["backend"] == expected
        assert json.loads(out.read_text())["backend"] == expected

    def test_figure_hooks_render_after_the_report(self, tmp_path):
        spec = CampaignSpec(
            name="fig",
            base={"benchmark": "lj", "n_atoms": 150, "steps": 2},
            sweep={},
            figures=("table3",),
        )
        out = tmp_path / "report.json"
        run_campaign(spec, out=out, timeout=600.0)
        rendered = tmp_path / "figures" / "table3.txt"
        assert rendered.exists()
        assert "V100" in rendered.read_text()

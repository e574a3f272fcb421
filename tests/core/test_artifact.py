"""Tests for the artifact-compatible output layout and the CLI."""

import pytest

from repro.model.framework.aggregator import RunsTable
from repro.model.framework.artifact import ArtifactLayout
from repro.model.framework.experiment import ExperimentSpec, Mode
from repro.model.framework.runner import run_experiment


@pytest.fixture(scope="module")
def records():
    cpu = run_experiment(ExperimentSpec("lj", "cpu", 32, 8, mode=Mode.PROFILING))
    gpu = run_experiment(ExperimentSpec("eam", "gpu", 32, 2, mode=Mode.PROFILING))
    plain = run_experiment(ExperimentSpec("chain", "cpu", 32, 4))
    return cpu, gpu, plain


class TestArtifactLayout:
    def test_runs_split_per_platform(self, records, tmp_path):
        cpu, gpu, plain = records
        layout = ArtifactLayout(tmp_path)
        table = RunsTable([cpu, gpu, plain])
        written = layout.write_runs(table)
        assert written["cpu"].name == "runs.csv"
        assert written["cpu"].parent.name == "lammps"
        assert written["gpu"].parent.name == "lammps_gpu"
        assert len(layout.load_runs("cpu")) == 2
        assert len(layout.load_runs("gpu")) == 1

    def test_profile_round_trip(self, records, tmp_path):
        cpu, _, _ = records
        layout = ArtifactLayout(tmp_path)
        path = layout.write_profile(cpu)
        assert path.parts[-3:] == ("lj", "prof", "32k_8.json")
        payload = layout.load_profile("lj", 32, 8)
        assert payload["task_fractions"] == pytest.approx(cpu.task_fractions)

    def test_benchmarking_record_rejected_as_profile(self, records, tmp_path):
        _, _, plain = records
        layout = ArtifactLayout(tmp_path)
        with pytest.raises(ValueError, match="profiling"):
            layout.write_profile(plain)

    def test_unknown_platform_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactLayout(tmp_path).load_runs("tpu")

    def test_profile_index(self, records, tmp_path):
        cpu, gpu, _ = records
        layout = ArtifactLayout(tmp_path)
        layout.write_profile(cpu)
        layout.write_profile(gpu)
        assert len(layout.profile_index()) == 2


class TestCli:
    def test_model_campaign_command(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main([
            "model-campaign", "--platform", "cpu", "--benchmarks", "lj",
            "--sizes", "32", "--resources", "4", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "lammps" / "runs.csv").exists()
        assert (tmp_path / "lj" / "prof" / "32k_4.json").exists()

    def test_figure_command(self, capsys):
        from repro.__main__ import main

        assert main(["figure", "table3"]) == 0
        out = capsys.readouterr().out
        assert "NVIDIA V100" in out

    def test_anchors_command(self, capsys):
        from repro.__main__ import main

        assert main(["anchors"]) == 0
        out = capsys.readouterr().out
        assert "rhodo CPU 2048k/64" in out
        assert "paper" in out

    def test_unknown_figure_rejected(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_run_deck_command(self, capsys):
        from pathlib import Path

        from repro.__main__ import main

        deck = Path(__file__).resolve().parents[2] / "decks" / "in.melt-nvt"
        assert main(["run-deck", str(deck)]) == 0
        out = capsys.readouterr().out
        assert "running 150 steps" in out
        assert "Task breakdown" in out

"""Artifact-compatible output layout.

The authors' benchmarking repository (github.com/necst/lammps-benchmarks,
DOI 10.5281/zenodo.7153144) collects results as

* ``lammps/runs.csv`` — CPU-instance performance runs,
* ``lammps_gpu/runs.csv`` — GPU-instance performance runs,
* ``<bench_name>/prof/`` — per-experiment profiling data that the
  post-processing scripts (``aggregate_mpi_data.py`` etc.) consume.

:class:`ArtifactLayout` writes this reproduction's records in the same
shape, so the directory a campaign produces mirrors the paper's
artifact — with JSON profile files standing in for the VTune/NSight
reports.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.model.framework.aggregator import RunsTable
from repro.model.framework.runner import RunRecord

__all__ = ["ArtifactLayout"]

_PLATFORM_DIRS = {"cpu": "lammps", "gpu": "lammps_gpu"}


class ArtifactLayout:
    """Reads/writes campaign results in the authors' artifact layout."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------- write
    def write_runs(self, table: RunsTable) -> dict[str, Path]:
        """Split records per platform into ``<dir>/runs.csv`` files."""
        written: dict[str, Path] = {}
        for platform, directory in _PLATFORM_DIRS.items():
            subset = RunsTable(r for r in table if r.platform == platform)
            if len(subset) == 0:
                continue
            path = self.root / directory / "runs.csv"
            subset.to_csv(path)
            written[platform] = path
        return written

    def write_profile(self, record: RunRecord) -> Path:
        """One profiling record -> ``<label>/prof/<size>_<res>.json``."""
        if not record.task_fractions and not record.kernel_fractions:
            raise ValueError(
                "record carries no profiling payload; run it in "
                "profiling mode (Figure 2's mode A)"
            )
        directory = self.root / record.label / "prof"
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{record.size_k}k_{record.resources}.json"
        payload = {
            "benchmark": record.benchmark,
            "platform": record.platform,
            "size_k": record.size_k,
            "resources": record.resources,
            "ts_per_s": record.ts_per_s,
            "task_fractions": record.task_fractions,
            "mpi_function_fractions": record.mpi_function_fractions,
            "kernel_fractions": record.kernel_fractions,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return path

    # -------------------------------------------------------------- read
    def load_runs(self, platform: str) -> RunsTable:
        try:
            directory = _PLATFORM_DIRS[platform]
        except KeyError:
            raise ValueError(f"platform must be one of {tuple(_PLATFORM_DIRS)}") from None
        return RunsTable.from_csv(self.root / directory / "runs.csv")

    def load_profile(self, label: str, size_k: int, resources: int) -> dict:
        path = self.root / label / "prof" / f"{size_k}k_{resources}.json"
        return json.loads(path.read_text())

    def profile_index(self) -> list[Path]:
        """All profile files currently in the artifact tree."""
        return sorted(self.root.glob("*/prof/*.json"))

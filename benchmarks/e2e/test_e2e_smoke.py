"""Smoke test of the end-to-end benchmark at ``--quick`` sizes.

Not part of tier-1 (``testpaths = ["tests"]``); run it with

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = json.loads((HERE / "workloads.json").read_text())["workloads"]
LINE = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+(\S+)$")
# At smoke sizes a step takes ~1 ms, of which ~60 us is the step loop's
# own glue; at the frozen sizes coverage is >= 0.99.
QUICK_COVERAGE = 0.90


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "5", "--quick",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(out.read_text())


def test_spec_and_workloads_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]]["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)


def test_every_metric_printed_once_with_unit(quick_run):
    stdout, results = quick_run
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    printed: dict[tuple[str, str], list[str]] = {}
    for line in stdout.splitlines():
        match = LINE.match(line)
        if match and match.group(1) in WORKLOADS:
            workload, metric, _, unit = match.groups()
            printed.setdefault((workload, metric), []).append(unit)
    for workload, record in results["workloads"].items():
        for metric in SPEC["end_to_end"]:
            assert printed[(workload, metric["name"])] == [metric["unit"]]
            assert record["end_to_end"][metric["name"]] > 0
        for metric in record["per_layer"]:
            assert printed[(workload, metric)] == [units[metric]]
        assert printed[(workload, "failed_frac")] == ["fraction"]
        assert record["failed"] == 0 and record["attempted"] >= 1
    # Every per-layer metric is measured by at least one workload.
    measured = {m for r in results["workloads"].values() for m in r["per_layer"]}
    assert measured == set(units) - {m["name"] for m in SPEC["end_to_end"]}


def test_trace_covers_the_timed_segment(quick_run):
    _, results = quick_run
    for workload, record in results["workloads"].items():
        layers = record["per_layer"]
        assert "trace.overhead_frac" in layers
        if WORKLOADS[workload]["kind"] == "engine":
            assert layers["trace.coverage_frac"] >= QUICK_COVERAGE, workload


def test_hand_driven_job_matches_execute_job(tmp_path):
    """The benchmark's mirror of the service path cannot drift from it."""
    sys.path.insert(0, str(ROOT / "src"))
    import engine
    from repro.service import JobSpec, execute_job
    from spans import Recorder
    from worker import load_workload

    for name in ("lj_32k", "rhodo_1k", "lj_32k_par2"):
        cfg, _ = load_workload(name, quick=True)
        facts = engine.run_job(cfg, 5, Recorder(), str(tmp_path), traced=True)
        result = execute_job(JobSpec(
            benchmark=cfg["benchmark"], n_atoms=cfg["n_atoms"],
            steps=cfg["steps"], seed=5, backend="auto", workers=cfg["workers"],
            checkpoint_every=cfg.get("checkpoint_every", 0),
        ))
        assert facts["digest_head"] == result.digest_head, name

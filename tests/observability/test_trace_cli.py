"""The ``python -m repro trace`` entry point and its acceptance bound."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.md import RunConfig
from repro.md.kernels import available_backends
from repro.md.kernels.compiled import compiled_available
from repro.observability import (
    MetricsRegistry,
    Tracer,
    trace_timer_agreement,
)
from repro.service import JobSpec, build_simulation


def test_trace_command_writes_trace_and_metrics(tmp_path, capsys):
    out = tmp_path / "trace_out"
    code = main(
        [
            "trace",
            "lj",
            "--steps",
            "10",
            "--atoms",
            "256",
            "--warmup",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0

    doc = json.loads((out / "trace.json").read_text())
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert complete, "trace recorded no spans"
    for event in complete:
        assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)
    # warmup steps were reset away: exactly the traced steps remain
    assert sum(1 for e in complete if e["name"] == "step") == 10

    lines = [
        json.loads(line)
        for line in (out / "metrics.jsonl").read_text().splitlines()
    ]
    assert lines[-1]["step"] == 10
    assert lines[-1]["metrics"]["md_steps_total"]["value"] == 12.0  # incl. warmup

    shown = capsys.readouterr().out
    assert "Task timing breakdown" in shown
    assert "trace/timer agreement" in shown
    # The registry name of the backend that ran.
    backend = shown.split("backend ", 1)[1].split()[0]
    assert backend in available_backends()


def test_rerunning_truncates_the_metrics_file(tmp_path, capsys):
    out = tmp_path / "trace_out"
    args = ["trace", "lj", "--steps", "4", "--atoms", "256",
            "--warmup", "0", "--snapshot-every", "2", "--out", str(out)]
    assert main(args) == 0
    assert main(args) == 0
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2  # one file per invocation, not an endless append


def test_span_totals_agree_with_task_breakdown_within_2_percent():
    """The PR's acceptance criterion, checked at the API level."""
    tracer = Tracer()
    sim, _steps = build_simulation(JobSpec(benchmark="lj", n_atoms=256))
    sim.attach_tracer(tracer)
    sim.attach_metrics(MetricsRegistry())
    sim.run(5)  # warmup (includes setup cost)
    tracer.reset()
    sim.run(RunConfig(steps=50, reset_timers=True))
    deltas = trace_timer_agreement(sim.timers, tracer)
    assert max(deltas.values()) < 0.02, deltas


@pytest.mark.parametrize("flag, value", [
    ("--steps", "0"),
    ("--steps", "-2"),
    ("--warmup", "-1"),
    ("--snapshot-every", "0"),
    ("--period", "0"),
    ("--period", "-0.5"),
])
def test_run_length_flags_are_checked_while_parsing(tmp_path, capsys, flag, value):
    """A run length the command cannot honour exits 2 before anything
    is built, and the message names the flag."""
    out = tmp_path / "trace_out"
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "lj", "--atoms", "256", "--out", str(out), flag, value])
    assert excinfo.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_a_build_the_engine_refuses_is_a_one_line_error(tmp_path, capsys):
    """64 LJ atoms make a box smaller than twice cutoff+skin: exit 2
    with one line naming --atoms, no traceback."""
    out = tmp_path / "trace_out"
    assert main(["trace", "lj", "--atoms", "64", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--atoms 64" in err and "exceeds half" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.skipif(not compiled_available(), reason="no compiled provider")
@pytest.mark.parametrize("bench, prunes", [("eam", 1), ("tersoff", 1), ("lj", 0)])
def test_the_trace_shows_whether_the_list_was_pruned(tmp_path, capsys, bench, prunes):
    """The CSR passes (EAM, Tersoff) sweep inner rows once after the
    build's step and LJ never does: the metrics count the sweeps, the
    gauge holds what the last one kept, and the trace has its span."""
    out = tmp_path / "trace_out"
    args = ["trace", bench, "--steps", "3", "--atoms", "512", "--warmup", "0",
            "--backend", "compiled", "--out", str(out)]
    assert main(args) == 0
    metrics = json.loads((out / "metrics.jsonl").read_text().splitlines()[-1])
    assert metrics["metrics"]["md_neighbor_prunes_total"]["value"] == prunes
    inner = metrics["metrics"]["md_neighbor_inner_pairs"]["value"]
    stored = metrics["metrics"]["md_neighbor_pairs"]["value"]
    assert (0 < inner < stored) if prunes else inner == 0
    events = json.loads((out / "trace.json").read_text())["traceEvents"]
    spans = [(e["name"], e["cat"]) for e in events if e["ph"] == "X"]
    assert spans.count(("neigh.prune", "neigh")) == prunes

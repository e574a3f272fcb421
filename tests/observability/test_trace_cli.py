"""The ``python -m repro trace`` entry point and its acceptance bound."""

from __future__ import annotations

import json

from repro.__main__ import main
from repro.md import RunConfig
from repro.md.kernels import available_backends
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

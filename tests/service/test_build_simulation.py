"""``repro.service.build_simulation``: the one place a described run is built.

What it builds must match the spec — resolved backend, precision mode,
executor type, worker count, parsed fault plan — for every registry
benchmark; and nothing else under ``src/repro`` may construct the
parallel engine's executor.  (That the *results* are unchanged is
pinned elsewhere: the ``cache_key()`` pin in ``test_spec.py``, the
chain heads of ``tests/reliability/test_determinism_matrix.py`` and the
hand-driven-vs-``execute_job`` head of ``benchmarks/e2e``.)
"""

import ast
import warnings
from pathlib import Path

import pytest

from repro.md.kernels import resolved_backend
from repro.md.simulation import SerialForceExecutor
from repro.parallel.engine import ParallelForceExecutor
from repro.service import JobSpec, build_simulation
from repro.suite import BENCHMARK_NAMES

from .test_spec import DECK

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_built_run_matches_the_spec(name, workers):
    spec = JobSpec(
        benchmark=name,
        n_atoms=300,
        steps=7,
        precision="mixed",
        backend="numpy_ref",
        workers=workers,
        fault_plan="kill:1:3;hang:0:5:rebuild",
    )
    simulation, steps = build_simulation(spec)
    try:
        assert steps == 7
        assert resolved_backend(simulation.backend) == resolved_backend("numpy_ref")
        assert simulation.precision.mode.value == "mixed"
        executor = simulation.force_executor
        if workers == 1:
            assert type(executor) is SerialForceExecutor
        else:
            assert type(executor) is ParallelForceExecutor
            assert executor.n_workers == workers
            assert executor.precision == simulation.precision
            assert executor.simulation is simulation  # bound
            assert [s.spec_string() for s in executor.fault_plan.specs] == [
                "kill:1:3:step", "hang:0:5:rebuild",
            ]
    finally:
        simulation.close()


def test_no_fault_plan_leaves_the_engine_to_read_the_environment():
    simulation, _ = build_simulation(JobSpec(benchmark="lj", workers=2))
    try:
        assert simulation.force_executor.fault_plan is None
    finally:
        simulation.close()


def test_default_backend_is_the_environment_resolved_one():
    simulation, _ = build_simulation(JobSpec(benchmark="lj"))
    assert resolved_backend(simulation.backend) == resolved_backend(None)


def test_the_built_backend_keeps_the_spec_request():
    """One resolution: the simulation's backend answers the spec's
    request, not a re-resolution of the name it resolved to."""
    with warnings.catch_warnings():
        # Without a working compiler, "compiled" falls back with a warning.
        warnings.simplefilter("ignore", RuntimeWarning)
        simulation, _ = build_simulation(JobSpec(benchmark="lj", backend="compiled"))
    backend = simulation.backend
    assert backend.requested == "compiled"
    assert (backend.name == "compiled") == (backend.fallback is None)
    simulation, _ = build_simulation(JobSpec(benchmark="lj", backend="auto"))
    assert simulation.backend.requested == "auto"
    assert simulation.backend.fallback is None


def test_deck_job_takes_steps_from_the_deck_unless_told():
    assert build_simulation(JobSpec(deck=DECK, steps=None))[1] == 10
    assert build_simulation(JobSpec(deck=DECK, steps=3))[1] == 3


def test_parallel_executor_is_constructed_in_exactly_one_place():
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for call in ast.walk(tree):
            callee = getattr(call, "func", None)
            name = getattr(callee, "id", getattr(callee, "attr", None))
            if isinstance(call, ast.Call) and name == "ParallelForceExecutor":
                owners = [
                    f.name for f in functions if f.lineno <= call.lineno <= f.end_lineno
                ]
                sites.append((str(path.relative_to(SRC)), owners[-1:]))
    assert sites == [("service/runner.py", ["build_simulation"])]

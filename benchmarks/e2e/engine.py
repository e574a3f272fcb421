"""Engine workloads: one MD job driven by hand through the public API.

:func:`run_job` mirrors ``repro.service.runner.execute_job`` call for
call — registry build, precision, backend resolution, (parallel
executor + checkpoint manager + recovery supervisor), chunked
``Simulation.run`` with a ``DigestRecorder``, ``finalize`` — so that its
digest-chain head equals the service's for the same spec (the smoke test
holds it to that).  The only additions are the recorder's spans and an
explicit ``Simulation.setup()`` so set-up can be timed apart from the
first chunk, which is the untimed warm-up.
"""

from __future__ import annotations

import dataclasses
import gc
import tempfile
import traceback
from contextlib import ExitStack
from itertools import pairwise
from statistics import median

from repro.md import RunConfig
from repro.md.kernels import backend_spec, get_backend
from repro.parallel.engine import ParallelForceExecutor
from repro.reliability import CheckpointManager, ResilientRunner
from repro.reliability.certify import DigestRecorder
from repro.suite import get_benchmark

from spans import Recorder, calibrated, host_probe, repeat_for

#: Relative step-0 potential-energy agreement required between the
#: parallel workload and its serial reference system.
PARALLEL_PE_RTOL = 1e-10


def _install_call_spans(rec: Recorder, sim, digest, manager) -> None:
    """Wrap every layer entry point of this one job's live objects.

    Span names are ``<layer>.<call>``; the layer is the module the
    method belongs to, which is what the ``*_frac`` metrics group by.
    """
    executor = sim.force_executor
    rec.wrap(
        executor, "maintain_neighbors",
        lambda rebuilt: "md.neighbor.build" if rebuilt else "md.neighbor.check",
    )
    rec.wrap(executor, "compute", "md.pair.compute")
    for term in sim.bonded:
        rec.wrap(term, "compute", "md.bonded.compute")
    if sim.kspace is not None:
        rec.wrap(sim.kspace, "compute", "md.kspace.compute")
    rec.wrap(sim.integrator, "initial_integrate", "md.integrators.initial")
    rec.wrap(sim.integrator, "final_integrate", "md.integrators.final")
    if sim.constraints is not None:
        rec.wrap(sim.constraints, "apply_positions", "md.constraints.positions")
        rec.wrap(sim.constraints, "apply_velocities", "md.constraints.velocities")
    for fix in sim.fixes:
        rec.wrap(fix, "post_force", "md.fixes.post_force")
    rec.wrap(sim.system, "wrap", "md.atoms.wrap")
    rec.wrap(
        digest, "maybe_record",
        lambda entry: "certify.digest.record" if entry else "certify.digest.skip",
    )
    if manager is not None:
        rec.wrap(
            manager, "maybe_checkpoint",
            lambda path: "reliability.checkpoint.write"
            if path else "reliability.checkpoint.skip",
        )


def run_job(cfg: dict, seed: int, rec: Recorder, scratch: str, traced: bool) -> dict:
    """Run one job; return its span indices and the facts the gate needs."""
    steps = int(cfg["steps"])
    chunk = max(1, steps // 10)
    workers = int(cfg["workers"])
    def probe() -> float:
        return host_probe(every_core=workers > 1)

    # One slowdown sample on either side of every stage, in stage order.
    probes = [probe()]
    with ExitStack() as stack, rec.span("job") as job:
        with rec.span("setup") as setup:
            with rec.span("suite.build"):
                sim = get_benchmark(cfg["benchmark"]).build(
                    int(cfg["n_atoms"]), seed=seed
                )
            stack.callback(sim.close)
            with rec.span("md.kernels.resolve"):
                sim.set_precision("double")
                sim.set_backend(backend_spec(get_backend("auto")))
            digest = DigestRecorder(every=chunk)
            manager = executor = runner = None
            if workers > 1:
                with rec.span("parallel.engine.attach"):
                    executor = ParallelForceExecutor(workers, precision="double")
                    sim.force_executor = executor
                    executor.bind(sim)
                manager = CheckpointManager(
                    stack.enter_context(tempfile.TemporaryDirectory(dir=scratch)),
                    every=int(cfg["checkpoint_every"]),
                )
                runner = ResilientRunner(sim, manager, digest=digest)
            if traced:
                _install_call_spans(rec, sim, digest, manager)
            with rec.span("md.simulation.setup"):
                sim.setup()

        def run_chunk(n: int) -> None:
            if runner is not None:
                runner.run(n)
            else:
                sim.run(RunConfig(steps=n, digest=digest))

        probes.append(probe())
        energy_0 = sim.total_energy()
        potential_energy_0 = sim.potential_energy
        with rec.span("warmup"):
            run_chunk(chunk)
        probes.append(probe())
        counts_0 = dataclasses.replace(sim.counts)
        writes_0 = 0 if manager is None else manager.writes
        worker_seconds_0 = (
            None if executor is None else executor.worker_pair_seconds.copy()
        )
        with rec.span("segment") as segment:
            done = chunk
            while done < steps:
                n = min(chunk, steps - done)
                with rec.span("chunk"):
                    run_chunk(n)
                probes.append(probe())
                done += n
        with rec.span("finalize"):
            digest.finalize(sim)
        probes.append(probe())

        counts = sim.counts
        facts = {
            "job": job,
            "setup": setup,
            "segment": segment,
            "probes": probes,
            "timed_steps": steps - chunk,
            "n_atoms": int(sim.system.n_atoms),
            "digest_head": digest.chain.head,
            "drift": abs(sim.total_energy() - energy_0) / abs(energy_0),
            "potential_energy_0": potential_energy_0,
            "recovery_events": 0 if runner is None else len(runner.events),
            "builds": counts.neighbor_builds - counts_0.neighbor_builds,
            "interactions": counts.pair_interactions - counts_0.pair_interactions,
            "grid_points": counts.kspace_grid_points - counts_0.kspace_grid_points,
            "shake_iterations": counts.shake_iterations - counts_0.shake_iterations,
            "list_pairs": int(sim.neighbor.stats.last_pairs),
        }
        if executor is not None:
            latest = manager.latest()
            facts.update(
                checkpoint_writes=manager.writes - writes_0,
                checkpoint_bytes=0 if latest is None else latest.stat().st_size,
                worker_pair_seconds=list(
                    executor.worker_pair_seconds - worker_seconds_0
                ),
                arena_bytes=executor.arena_nbytes,
            )
        return facts


def _step0_potential_energy(cfg: dict, seed: int) -> float:
    """Step-0 potential energy of ``cfg``'s system on the serial engine."""
    sim = get_benchmark(cfg["benchmark"]).build(int(cfg["n_atoms"]), seed=seed)
    try:
        sim.set_precision("double")
        sim.set_backend(backend_spec(get_backend("auto")))
        sim.setup()
        return sim.potential_energy
    finally:
        sim.close()


def _total(self_times: dict, name: str) -> float:
    return sum(self_times.get(name, ()))


def _layer_total(self_times: dict, layer: str) -> float:
    return sum(
        sum(times)
        for name, times in self_times.items()
        if name.rpartition(".")[0] == layer
    )


def _mean_ms(times) -> float:
    return 1e3 * sum(times) / len(times) if times else 0.0


def layer_metrics(rec: Recorder, facts: dict) -> dict:
    """Per-layer metrics of one traced job (fractions of the timed
    chunks' wall; the probes between chunks are not part of it)."""
    segment = facts["segment"]
    wall = sum(rec.duration(i) for i in rec.find("chunk", under=segment))
    own = rec.self_times(segment)
    steps = facts["timed_steps"]
    setup_own = rec.self_times(facts["setup"])
    pair = _layer_total(own, "md.pair")

    def frac(layer: str) -> float:
        return _layer_total(own, layer) / wall

    glue = _total(own, "chunk")
    metrics = {
        "suite.build_s": _total(setup_own, "suite.build"),
        "md.kernels.resolve_s": _total(setup_own, "md.kernels.resolve"),
        "md.simulation.setup_s": rec.duration(
            rec.find("md.simulation.setup", under=facts["setup"])[0]
        ),
        "md.neighbor.busy_frac": frac("md.neighbor"),
        "md.neighbor.builds": facts["builds"],
        "md.neighbor.ms_per_build": _mean_ms(own.get("md.neighbor.build", ())),
        "md.neighbor.check_ms_per_step": _mean_ms(own.get("md.neighbor.check", ())),
        "md.neighbor.pairs_per_atom": facts["list_pairs"] / facts["n_atoms"],
        "md.pair.busy_frac": pair / wall,
        "md.pair.ns_per_interaction": 1e9 * pair / max(1, facts["interactions"]),
        "md.pair.interactions_per_step": facts["interactions"] / steps,
        "md.bonded.busy_frac": frac("md.bonded"),
        "md.kspace.busy_frac": frac("md.kspace"),
        "md.kspace.grid_points": facts["grid_points"] / steps,
        "md.integrators.busy_frac": frac("md.integrators"),
        "md.constraints.busy_frac": frac("md.constraints"),
        "md.constraints.shake_iters_per_step": facts["shake_iterations"] / steps,
        "md.fixes.busy_frac": frac("md.fixes"),
        "md.atoms.wrap_frac": frac("md.atoms"),
        "md.simulation.other_frac": glue / wall,
        "certify.digest.busy_frac": frac("certify.digest"),
        "certify.digest.ms_per_record": _mean_ms(own.get("certify.digest.record", ())),
        "reliability.checkpoint.busy_frac": frac("reliability.checkpoint"),
        "reliability.checkpoint.ms_per_write": _mean_ms(
            own.get("reliability.checkpoint.write", ())
        ),
        "trace.coverage_frac": 1.0 - glue / wall,
    }
    if "worker_pair_seconds" in facts:
        worker = facts["worker_pair_seconds"]
        # Lazy pool start happens inside the first forced neighbor build.
        first_build = rec.find("md.neighbor.build", under=facts["setup"])[0]
        compute_wall = sum(
            rec.duration(i) for i in rec.find("md.pair.compute", under=segment)
        )
        metrics.update({
            "reliability.checkpoint.bytes_per_write": facts["checkpoint_bytes"],
            "parallel.engine.start_s": _total(setup_own, "parallel.engine.attach")
            + rec.duration(first_build),
            "parallel.engine.sync_frac": (compute_wall - max(worker)) / wall,
            "parallel.engine.worker_imbalance": max(worker)
            / (sum(worker) / len(worker)),
            "parallel.engine.arena_mb": facts["arena_bytes"] / 2**20,
        })
    return metrics


def _stage_seconds(rec: Recorder, facts: dict) -> tuple[list[float], list[float]]:
    """Wall and calibrated seconds of one job's stages: set-up, warm-up,
    each chunk, finalize."""
    job = facts["job"]
    stages = (
        [facts["setup"]]
        + rec.find("warmup", under=job)
        + rec.find("chunk", under=facts["segment"])
        + rec.find("finalize", under=job)
    )
    walls = [rec.duration(i) for i in stages]
    return walls, [
        calibrated(wall, before, after)
        for wall, (before, after) in zip(walls, pairwise(facts["probes"]))
    ]


def _fastest(stage_seconds: list[list[float]]) -> list[float]:
    """Per-stage fastest time over repeats of the identical job."""
    return [min(column) for column in zip(*stage_seconds)]


def _gate(cfg: dict, facts: dict, reference_head: str) -> list[str]:
    """Correctness problems of one finished job (empty when it passes)."""
    problems = []
    if facts["digest_head"] != reference_head:
        problems.append(
            f"digest head {facts['digest_head'][:12]} differs from the first "
            f"repeat's {reference_head[:12]}"
        )
    tol = cfg.get("drift_tol")
    if tol is not None and not facts["drift"] <= tol:
        problems.append(f"energy drift {facts['drift']:.3e} exceeds {tol:g}")
    if facts["recovery_events"]:
        problems.append(f"{facts['recovery_events']} recovery events")
    return problems


def measure(
    cfg: dict, reference_cfg: dict | None, seed: int,
    untraced_seconds: float, traced_seconds: float,
    rec: Recorder, scratch: str,
) -> dict:
    """Repeat the identical job untraced, then traced; gate every repeat."""
    failures: list[str] = []
    jobs: list[dict] = []      # facts of every job that finished
    traced_jobs: list[dict] = []
    attempted = 0

    def attempt(traced: bool):
        nonlocal attempted
        attempted += 1
        # A finished Simulation is a reference cycle; drop it now so
        # that peak memory is one job's, however many repeats fit.
        gc.collect()
        try:
            facts = run_job(cfg, seed, rec, scratch, traced)
        except Exception:  # a failed job is a counted failure, not a crash
            failures.append(traceback.format_exc(limit=4))
            return
        jobs.append(facts)
        problems = _gate(cfg, facts, jobs[0]["digest_head"])
        if problems:
            failures.append("; ".join(problems))
        elif traced:
            traced_jobs.append(facts)

    # The first repeat warms the process up (its set-up and first steps
    # fault in the heap and run up to 1.5x slower): gated like the
    # others, left out of the times.
    repeat_for(untraced_seconds, 4, lambda _: attempt(False))
    untraced_jobs = jobs[1:]
    if traced_seconds > 0:
        repeat_for(traced_seconds, 1, lambda _: attempt(True))

    if reference_cfg is not None and jobs:
        attempted += 1
        serial = _step0_potential_energy(reference_cfg, seed)
        parallel = jobs[0]["potential_energy_0"]
        if abs(parallel - serial) > PARALLEL_PE_RTOL * abs(serial):
            failures.append(
                f"step-0 potential energy {parallel!r} differs from the "
                f"serial reference {serial!r}"
            )

    record = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digest_head": jobs[0]["digest_head"] if jobs else None,
    }
    if not untraced_jobs:
        return record

    # Every repeat is the same deterministic work, stage for stage
    # (set-up, warm-up chunk, the timed chunks, finalize), and the
    # host only ever adds time to it, so each stage is reported at its
    # fastest calibrated time over the repeats.  Only three repeats of
    # the two-process job fit a run, and one stall (either process held
    # up holds up both) pulls their median: over six ten-seed sweeps the
    # spread of its ``job_wall_s`` was 0.09-0.36 with medians and
    # 0.06-0.16 with minima; the serial workloads stay below 0.09 with
    # either.
    timed_steps = untraced_jobs[0]["timed_steps"]

    def end_to_end(stage_seconds: list[list[float]]) -> dict:
        stages = _fastest(stage_seconds)
        return {
            "ts_per_s": timed_steps / sum(stages[2:-1]),
            "job_wall_s": sum(stages),
            "jobs_per_min": 60.0 / sum(stages),
            "setup_s": stages[0],
        }

    stage_walls, stage_calibrated = zip(
        *(_stage_seconds(rec, f) for f in untraced_jobs)
    )
    record["end_to_end"] = end_to_end(stage_calibrated)
    record["end_to_end_wall"] = end_to_end(stage_walls)
    record["host_slowdown"] = median(p for f in untraced_jobs for p in f["probes"])
    record["raw"] = {
        "repeats": len(untraced_jobs),
        "ts_per_s": [timed_steps / sum(s[2:-1]) for s in stage_calibrated],
        "job_wall_s": [sum(s) for s in stage_calibrated],
        "setup_s": [s[0] for s in stage_calibrated],
        "stage_wall_s": stage_walls,
        "probes": [f["probes"] for f in untraced_jobs],
    }
    record["counts"] = {
        key: untraced_jobs[0][key]
        for key in ("timed_steps", "n_atoms", "builds", "interactions",
                    "grid_points", "shake_iterations", "list_pairs")
    }
    if traced_jobs:
        per_job_layers = [layer_metrics(rec, f) for f in traced_jobs]
        layers = {
            name: median(m[name] for m in per_job_layers)
            for name in per_job_layers[0]
        }
        traced_segment = _fastest(
            [_stage_seconds(rec, f)[1][2:-1] for f in traced_jobs]
        )
        layers["trace.overhead_frac"] = 1.0 - sum(
            _fastest(stage_calibrated)[2:-1]
        ) / sum(traced_segment)
        layers["host.slowdown"] = record["host_slowdown"]
        record["per_layer"] = layers
        record["raw"]["traced_repeats"] = len(traced_jobs)
    return record

#!/usr/bin/env python
"""Micro-benchmark harness for the force-kernel backends.

Times the engine's hot loops — neighbor-list build, LJ/EAM/granular
force evaluation, the LJ force-accumulation scatter, and a full LJ-melt
timestep — at 4k and 32k atoms for every registered kernel backend,
and writes the measurements to ``BENCH_kernels.json`` at the repo root.
That file seeds the repo's tracked performance trajectory: re-run after
kernel work and diff the ``speedups`` section.

Usage::

    python benchmarks/bench_kernels.py            # full run (~minutes)
    python benchmarks/bench_kernels.py --quick    # 4k atoms only (CI smoke)
    python benchmarks/bench_kernels.py --out PATH # custom output location
    python benchmarks/bench_kernels.py --trace DIR # also write Chrome
                                                   # traces of the
                                                   # full-step sections

The harness is a plain script (not a pytest module) so it can run
without the test extras installed.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.md.kernels import (  # noqa: E402
    CompiledBackend,
    KernelBackend,
    available_backends,
    backend_diagnostics,
    get_backend,
    resolve_auto_backend,
)
from repro.md.kernels.compiled import (  # noqa: E402
    compiled_available,
    provider_info,
)
from repro.md.lattice import (  # noqa: E402
    chute_system,
    eam_solid_system,
    lj_melt_system,
)
from repro.md.neighbor import NeighborList  # noqa: E402
from repro.observability.telemetry import (  # noqa: E402
    TelemetrySampler,
    detect_provider,
    platform_provenance,
)
from repro.platforms.power import MIN_RUN_SECONDS  # noqa: E402
from repro.report import (  # noqa: E402
    energy_provenance,
    make_report,
    platform_info,
)
from repro.md.potentials.eam import EAMAlloy  # noqa: E402
from repro.md.potentials.granular import HookeHistory  # noqa: E402
from repro.md.potentials.lj import LennardJonesCut  # noqa: E402
from repro.md.simulation import Simulation  # noqa: E402

#: The acceptance bar for the optimized backend on the 32k-atom LJ
#: force-accumulation micro-benchmark (vs the numpy_ref oracle).
ACCUMULATE_SPEEDUP_THRESHOLD = 3.0

#: Acceptance bars for the compiled backend vs numpy_fast at 32k LJ.
COMPILED_ACCUMULATE_THRESHOLD = 5.0
COMPILED_NEIGH_THRESHOLD = 3.0

#: The compiled backend's fused lj/cut pass vs the same backend with the
#: pass declined (geometry -> pair_terms -> accumulate), LJ force_eval.
#: Enforced at every size, the CI smoke size included.
FUSED_OVER_UNFUSED_THRESHOLD = 1.5


class _UnfusedCompiled(CompiledBackend):
    """The compiled backend with its fused pair pass declined."""

    pair_forces = KernelBackend.pair_forces


def _timed(fn, reps: int, *, setup=None, warmup: int = 1) -> dict:
    """Best/mean wall-clock of ``reps`` calls (plus warmup calls)."""
    # The compiled backend builds its native library on first use;
    # skipping warmup would charge that one-time cost to the
    # measurement, so the guard is unconditional.
    assert warmup >= 1, "warmup must stay >= 1 (compile on first call)"
    if setup is not None:
        setup()
    for _ in range(warmup):  # warmup: compile, scratch allocation, caches
        fn()
    times = []
    for _ in range(reps):
        if setup is not None:
            setup()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {
        "best_s": min(times),
        "mean_s": sum(times) / len(times),
        "reps": reps,
    }


def _record(results: list, verbose: bool, **entry) -> None:
    results.append(entry)
    if verbose:
        backend = entry.get("backend") or "-"
        print(
            f"  {entry['group']:<12} {entry['benchmark']:<8} "
            f"n={entry['n_atoms']:<6} {backend:<10} "
            f"best={entry['best_s'] * 1e3:9.2f} ms",
            flush=True,
        )


# ---------------------------------------------------------------------------
# Benchmark system builders: (system, neighbor kwargs, potential factory)
# ---------------------------------------------------------------------------
def _lj_case(n: int):
    system = lj_melt_system(n, seed=12345)
    return system, dict(cutoff=2.5, skin=0.3), lambda: LennardJonesCut(cutoff=2.5)


def _eam_case(n: int):
    system = eam_solid_system(n, seed=777)
    return system, dict(cutoff=4.95, skin=1.0), EAMAlloy


def _granular_case(n: int):
    layers = 4
    side = max(2, round(math.sqrt(n / layers)))
    system = chute_system(side, side, layers, seed=999)
    return (
        system,
        dict(cutoff=1.0, skin=0.1, full=True),
        lambda: HookeHistory(dt=1e-4),
    )


_CASES = {"lj": _lj_case, "eam": _eam_case, "granular": _granular_case}


def run(
    sizes: list[int],
    *,
    quick: bool,
    verbose: bool = True,
    trace_dir: Path | None = None,
) -> dict:
    # Skip "compiled" when no provider works: get_backend would fall
    # back to numpy_fast and the entries would be mislabeled.
    backends = tuple(
        name
        for name in available_backends()
        if name != "compiled" or compiled_available()
    )
    results: list[dict] = []
    eval_reps = 2 if quick else 3
    step_reps = 3 if quick else 5

    for n in sizes:
        for bench, case in _CASES.items():
            system, nl_kwargs, make_potential = case(n)
            n_atoms = system.n_atoms
            if verbose:
                print(f"[{bench} n={n_atoms}]", flush=True)

            # -- Neigh: list construction, cell path (and the brute-force
            # path where it is tractable).
            nlist = NeighborList(
                nl_kwargs["cutoff"],
                nl_kwargs["skin"],
                full=nl_kwargs.get("full", False),
                brute_force_max=0,
            )
            timing = _timed(lambda: nlist.build(system), reps=1)
            _record(
                results, verbose,
                group="neigh_build", benchmark=bench, n_atoms=n_atoms,
                backend="numpy_fast", variant="cell", pairs=len(nlist.pair_i),
                **timing,
            )
            if "compiled" in backends:
                fast = NeighborList(
                    nl_kwargs["cutoff"],
                    nl_kwargs["skin"],
                    full=nl_kwargs.get("full", False),
                    brute_force_max=0,
                )
                fast.kernels = get_backend("compiled")
                timing = _timed(lambda: fast.build(system), reps=1)
                _record(
                    results, verbose,
                    group="neigh_build", benchmark=bench, n_atoms=n_atoms,
                    backend="compiled", variant="cell",
                    pairs=len(fast.pair_i), **timing,
                )
            if n_atoms <= 8192:
                brute = NeighborList(
                    nl_kwargs["cutoff"],
                    nl_kwargs["skin"],
                    full=nl_kwargs.get("full", False),
                    brute_force_max=10**9,
                )
                timing = _timed(lambda: brute.build(system), reps=1)
                _record(
                    results, verbose,
                    group="neigh_build", benchmark=bench, n_atoms=n_atoms,
                    backend=None, variant="brute_force",
                    pairs=len(brute.pair_i), **timing,
                )

            # -- Pair: full force evaluation on each backend.
            for backend_name in backends:
                potential = make_potential()
                potential.backend = get_backend(backend_name)

                def eval_forces():
                    system.forces[:] = 0.0
                    if system.torques is not None:
                        system.torques[:] = 0.0
                    potential.compute(system, nlist)

                timing = _timed(eval_forces, reps=eval_reps)
                _record(
                    results, verbose,
                    group="force_eval", benchmark=bench, n_atoms=n_atoms,
                    backend=backend_name, pairs=len(nlist.pair_i), **timing,
                )

            # -- LJ extras: the fused pass against its own unfused path,
            # the accumulation micro-benchmark and a full timestep (the
            # acceptance-tracked numbers).
            if bench != "lj":
                continue

            if "compiled" in backends:
                potential = make_potential()
                potential.backend = _UnfusedCompiled()

                def eval_unfused():
                    system.forces[:] = 0.0
                    potential.compute(system, nlist)

                timing = _timed(eval_unfused, reps=eval_reps)
                _record(
                    results, verbose,
                    group="force_eval", benchmark=bench, n_atoms=n_atoms,
                    backend="compiled", variant="unfused",
                    pairs=len(nlist.pair_i), **timing,
                )

            ref = get_backend("numpy_ref")
            i, j, dr, r = ref.current_pairs(system, nlist, nl_kwargs["cutoff"])
            lj = make_potential()
            _, f_over_r = lj.pair_terms(r, r * r, None, None, None, None)
            forces = np.zeros_like(system.forces)
            for backend_name in backends:
                backend = get_backend(backend_name)
                timing = _timed(
                    lambda: backend.accumulate_scaled_pair_forces(
                        forces, i, j, dr, f_over_r
                    ),
                    reps=eval_reps + 2,
                )
                _record(
                    results, verbose,
                    group="accumulate", benchmark=bench, n_atoms=n_atoms,
                    backend=backend_name, pairs=len(i), **timing,
                )

            for backend_name in backends:
                sim = Simulation(
                    lj_melt_system(n, seed=12345),
                    [LennardJonesCut(cutoff=2.5)],
                    dt=0.005,
                    skin=0.3,
                    backend=backend_name,
                )
                if trace_dir is not None:
                    from repro.observability import Tracer

                    sim.attach_tracer(Tracer())
                sim.setup()
                # Time fresh post-setup steps: no rebuild lands inside
                # the window (half-skin takes ~25 melt steps to cross).
                timing = _timed(sim.step, reps=step_reps)
                # Measured energy over a separate stepping window.  Full
                # runs keep stepping until the window clears the power
                # methodology's 10 s floor, so the record loses its
                # power_under_sampled flag; quick (CI) runs stay short
                # and keep the flag honestly true.
                sampler = TelemetrySampler(detect_provider())
                sampler.start()
                window0 = time.perf_counter()
                energy_steps = 0
                while True:
                    for _ in range(step_reps):
                        sim.step()
                    energy_steps += step_reps
                    if quick or (
                        time.perf_counter() - window0 >= MIN_RUN_SECONDS
                    ):
                        break
                sampler.stop()
                _record(
                    results, verbose,
                    group="full_step", benchmark=bench, n_atoms=sim.system.n_atoms,
                    backend=backend_name, pairs=len(sim.neighbor.pair_i),
                    energy=sampler.summary(steps=energy_steps),
                    energy_steps=energy_steps,
                    **timing,
                )
                if trace_dir is not None:
                    path = sim.tracer.write_chrome_trace(
                        trace_dir / f"full_step_{bench}_n{n_atoms}_{backend_name}.json",
                        process_name=f"bench:{bench}:{backend_name}",
                    )
                    if verbose:
                        print(f"  trace -> {path}", flush=True)

    return make_report(
        "kernels",
        backend={
            "requested": list(backends),
            "resolved": list(backends),
            "auto_resolves_to": resolve_auto_backend(),
        },
        precision="double",
        energy=energy_provenance(),
        platform=platform_info(
            kernel_backends=backend_diagnostics(),
            compiled_provider=provider_info(),
            telemetry=platform_provenance(),
        ),
        quick=quick,
        requested_sizes=sizes,
        backends=list(backends),
        kernel_backend_auto=resolve_auto_backend(),
        results=results,
        speedups=_speedups(results),
    )


def _speedups(results: list[dict]) -> list[dict]:
    """Backend ratios for every (group, benchmark, n_atoms) pairing:
    fast-over-ref, and compiled-over-fast when the compiled backend
    produced timings."""
    keyed: dict[tuple, dict[str, float]] = {}
    for entry in results:
        if entry.get("backend") is None:
            continue
        # The cell/brute neigh_build variants are different algorithms,
        # not different backends; only compare cell against cell.
        if entry.get("variant") not in (None, "cell"):
            continue
        key = (entry["group"], entry["benchmark"], entry["n_atoms"])
        keyed.setdefault(key, {})[entry["backend"]] = entry["best_s"]
    unfused = {
        (entry["benchmark"], entry["n_atoms"]): entry["best_s"]
        for entry in results
        if entry.get("variant") == "unfused"
    }
    out = []
    for (group, bench, n_atoms), per_backend in sorted(keyed.items()):
        row = {"group": group, "benchmark": bench, "n_atoms": n_atoms}
        if {"numpy_ref", "numpy_fast"} <= set(per_backend):
            row["speedup_fast_over_ref"] = (
                per_backend["numpy_ref"] / per_backend["numpy_fast"]
            )
        if {"numpy_fast", "compiled"} <= set(per_backend):
            row["speedup_compiled_over_fast"] = (
                per_backend["numpy_fast"] / per_backend["compiled"]
            )
        if group == "force_eval" and (bench, n_atoms) in unfused:
            row["speedup_fused_over_unfused"] = (
                unfused[bench, n_atoms] / per_backend["compiled"]
            )
        if len(row) > 3:
            out.append(row)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="4k atoms only with fewer repetitions (CI smoke test)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_kernels.json",
        help="output JSON path (default: BENCH_kernels.json at repo root)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="DIR",
        help="also write Chrome traces of the full-step sections to DIR",
    )
    args = parser.parse_args(argv)

    # Fail on an unwritable destination now, not after minutes of timing.
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.touch()
    if args.trace is not None:
        args.trace.mkdir(parents=True, exist_ok=True)

    sizes = [4096] if args.quick else [4096, 32768]
    report = run(sizes, quick=args.quick, trace_dir=args.trace)

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    failures = []
    for entry in report["speedups"]:
        ratios = ", ".join(
            f"{key.split('speedup_')[1]}={entry[key]:.2f}x"
            for key in (
                "speedup_fast_over_ref",
                "speedup_compiled_over_fast",
                "speedup_fused_over_unfused",
            )
            if key in entry
        )
        print(
            f"speedup {entry['group']}/{entry['benchmark']}"
            f"/n{entry['n_atoms']}: {ratios}"
        )
        fused_over_unfused = entry.get("speedup_fused_over_unfused")
        if (
            fused_over_unfused is not None
            and fused_over_unfused < FUSED_OVER_UNFUSED_THRESHOLD
        ):
            failures.append(
                f"LJ force_eval n={entry['n_atoms']} fused-over-unfused "
                f"{fused_over_unfused:.2f}x < {FUSED_OVER_UNFUSED_THRESHOLD}x"
            )
        if args.quick or entry["n_atoms"] < 32_000:
            continue
        fast_over_ref = entry.get("speedup_fast_over_ref")
        compiled_over_fast = entry.get("speedup_compiled_over_fast")
        if (
            entry["group"] == "accumulate"
            and fast_over_ref is not None
            and fast_over_ref < ACCUMULATE_SPEEDUP_THRESHOLD
        ):
            failures.append(
                f"32k LJ accumulation fast-over-ref "
                f"{fast_over_ref:.2f}x < {ACCUMULATE_SPEEDUP_THRESHOLD:.0f}x"
            )
        if entry["benchmark"] != "lj" or compiled_over_fast is None:
            continue
        if (
            entry["group"] == "accumulate"
            and compiled_over_fast < COMPILED_ACCUMULATE_THRESHOLD
        ):
            failures.append(
                f"32k LJ accumulation compiled-over-fast "
                f"{compiled_over_fast:.2f}x < {COMPILED_ACCUMULATE_THRESHOLD:.0f}x"
            )
        if (
            entry["group"] == "neigh_build"
            and compiled_over_fast < COMPILED_NEIGH_THRESHOLD
        ):
            failures.append(
                f"32k LJ neighbor build compiled-over-fast "
                f"{compiled_over_fast:.2f}x < {COMPILED_NEIGH_THRESHOLD:.0f}x"
            )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""The repo's end-to-end benchmark: job spec -> certified result.

    python benchmarks/e2e/run.py --seed 20220            # everything
    python benchmarks/e2e/run.py --seed 1 --quick         # smoke sizes
    python benchmarks/e2e/run.py --workload lj_32k --seed 7 \\
        --seconds 10 --trace 0                            # one contract run

Every selected workload runs in its own fresh subprocess (``worker.py``)
with threads pinned to one per process.  This process prints every
metric by name with its unit, applies the correctness gate (non-zero
exit when anything failed), and writes the results file that
``compare.py`` reads.  With exactly one ``--workload`` and ``--trace 0``
or ``1`` the last line of stdout is the one-object result line that
``BENCHMARK.json``'s contract describes.

``--trace`` selects what a workload's process measures:

* ``0``    untraced repeats for ``--seconds``       -> end-to-end metrics
* ``1``    half the time untraced, half traced      -> per-layer metrics
* ``both`` untraced for ``--seconds``, then traced for half as long
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"


def run_workload(name: str, args) -> dict:
    """Measure one workload in a fresh, thread-pinned subprocess."""
    untraced, traced = {
        "0": (args.seconds, 0.0),
        "1": (args.seconds / 2, args.seconds / 2),
        "both": (args.seconds, args.seconds / 2),
    }[args.trace]
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        # Checkpoints, caches and spools all land under the checkout.
        TMPDIR=str(scratch),
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(args.seed),
        "--untraced-seconds", str(untraced), "--traced-seconds", str(traced),
        "--trace-file", str(OUT / f"trace_{name}.json"),
    ] + (["--quick"] if args.quick else [])
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode != 0:
        sys.exit(f"workload {name}: worker exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def print_metrics(name: str, record: dict, spec: dict) -> None:
    """Every metric once, by name, with its unit."""
    for section in ("end_to_end", "per_layer"):
        units = {m["name"]: m["unit"] for m in spec[section]}
        for metric, value in record.get(section, {}).items():
            print(f"{name:18s} {metric:40s} {value:16.6g} {units[metric]}")
    print(f"{name:18s} {'failed_frac':40s} "
          f"{record['failed'] / record['attempted']:16.6g} fraction")
    for failure in record["failures"]:
        print(f"{name}: FAILED: {failure}", file=sys.stderr)


def contract_line(record: dict, spec: dict, trace: str) -> str:
    """The single-run result object, with every metric of its section;
    a layer the workload never enters reports 0."""
    section = "end_to_end" if trace == "0" else "per_layer"
    measured = record.get(section, {})
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
        for m in spec[section]
    }
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def main() -> None:
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, required=True,
                        help="the only source of randomness in the inputs")
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: "
                        "run_seconds of BENCHMARK.json, 1 with --quick)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--no-trace", dest="trace", action="store_const",
                        const="0", help="same as --trace 0")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes (n <= 500); not comparable")
    parser.add_argument("--out", type=Path, help="results file")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(spec["run_seconds"])
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("src/repro not found: the benchmark drives the program "
                 "from the checkout's own source")

    OUT.mkdir(exist_ok=True)
    selected = args.workload or names
    started = time.time()
    records = {}
    for name in selected:
        records[name] = run_workload(name, args)
        print_metrics(name, records[name], spec)

    results = {
        "schema": "repro-e2e-results/1",
        "created_unix": started,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        # Identical in every worker of one invocation; kept once.
        "env": [r.pop("env") for r in records.values()][0],
        "workloads": records,
    }
    out = args.out or OUT / f"results_seed{args.seed}.json"
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {out} ({time.time() - started:.0f} s)")

    failed = sum(r["failed"] for r in records.values())
    if len(selected) == 1 and args.trace != "both":
        print(contract_line(records[selected[0]], spec, args.trace))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()

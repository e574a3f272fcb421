"""One workload, measured in this fresh process; prints one JSON record.

Started by ``run.py`` (never by hand): thread pinning and the scratch
directory arrive through the environment, the sizes through
``workloads.json``.  The record carries the end-to-end metrics of the
untraced repeats, the per-layer metrics of the traced ones, the raw
per-repeat values, the correctness-gate outcome and the env block.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))


def load_workload(name: str, quick: bool) -> tuple[dict, dict | None]:
    """Config of ``name`` (smoke sizes if ``quick``) and of the serial
    system a parallel workload is checked against, if it names one."""
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]

    def sized(key: str) -> dict:
        cfg = dict(workloads[key])
        if quick:
            cfg.update(cfg.get("quick", {}))
        return cfg

    cfg = sized(name)
    reference = cfg.get("serial_reference")
    return cfg, None if reference is None else sized(reference)


def env_block() -> dict:
    """What two result sets must share before their times are compared."""
    import numpy
    from repro.md.kernels import resolve_auto_backend
    from repro.md.kernels.compiled import provider_info
    from repro.observability.telemetry import cgroup_cpu_quota
    from repro.report import energy_provenance

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    backend = resolve_auto_backend()
    provider = provider_info() if backend == "compiled" else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "auto_backend": backend,
        "compiled_provider": provider.get("kind") if provider else None,
        "cgroup_cpu_quota_cores": cgroup_cpu_quota(),
        "power_provider_kind": energy_provenance()["kind"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--untraced-seconds", type=float, required=True)
    parser.add_argument("--traced-seconds", type=float, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-file", type=Path, required=True)
    args = parser.parse_args()

    from repro.service import JobSpec, execute_job

    import engine
    import svc
    from spans import Recorder

    cfg, reference_cfg = load_workload(args.workload, args.quick)
    # Build (first run in a checkout) or load the native kernels now, so
    # no measured job is charged the compile; with engine workers, also
    # the first spawn of the process, which costs 1-2 s more than later ones.
    execute_job(JobSpec(
        benchmark="lj", n_atoms=256, steps=2, backend="auto",
        workers=cfg.get("workers", 1),
    ))

    rec = Recorder()
    budgets = (args.untraced_seconds, args.traced_seconds)
    with tempfile.TemporaryDirectory() as scratch:
        if cfg["kind"] == "engine":
            record = engine.measure(
                cfg, reference_cfg, args.seed, *budgets, rec, scratch
            )
        else:
            record = svc.measure(cfg, args.seed, *budgets, rec, scratch)
    if args.traced_seconds > 0:
        rec.write_chrome_trace(args.trace_file, args.workload)

    # Everything this process started has been closed and waited for,
    # so RUSAGE_CHILDREN now holds the largest descendant's peak.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if "end_to_end" in record:
        record["end_to_end"]["peak_rss_mb"] = (own + largest_child) / 1024.0
    record.update(workload=args.workload, seed=args.seed, env=env_block())
    print(json.dumps(record))


if __name__ == "__main__":
    main()

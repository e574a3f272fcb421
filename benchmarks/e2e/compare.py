#!/usr/bin/env python3
"""Compare two results files of ``run.py``: ``compare.py A.json B.json``.

For every (workload, end-to-end metric) pair, B's value is held against
A's with the regression bound fixed in ``BENCHMARK.json``:

* ``ok``          B is no worse than A by more than the bound;
* ``REGRESSION``  it is worse by more than the bound;
* ``unresolved``  a set's own repeats spread (max - min over median)
  wider than the bound, so the difference cannot be told from noise.

Exits 1 on a regression or when a workload's digest head differs
between the sets (the same seed must give the same trajectory), 2 when
the sets may not be compared at all: different seeds or sizes, or env
blocks that differ in anything that moves a time (cores, CPU model,
interpreter, numpy, resolved backend/provider, cgroup quota).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(record: dict, metric: str) -> float:
    """Min-max spread of a set's own repeats of ``metric`` (0 if single)."""
    values = record.get("raw", {}).get(metric)
    if not values or len(values) < 2:
        return 0.0
    ordered = sorted(values)
    return (ordered[-1] - ordered[0]) / ordered[len(ordered) // 2]


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    for key in ("env", "seed", "quick", "seconds"):
        if a[key] != b[key]:
            print(f"refusing to compare: {key} differs\n  A: {a[key]}\n  B: {b[key]}")
            return 2

    status = 0
    for metric in json.loads(SPEC.read_text())["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
            ra, rb = a["workloads"][workload], b["workloads"][workload]
            va, vb = ra["end_to_end"][name], rb["end_to_end"][name]
            worse_by = sign * (vb - va) / va
            if max(spread(ra, name), spread(rb, name)) > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict, status = "REGRESSION", 1
            else:
                verdict = "ok"
            print(f"{workload:18s} {name:14s} A {va:12.5g} B {vb:12.5g} "
                  f"worse by {worse_by:+7.3f} (bound {bound:.2f}) {verdict}")

    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        heads = [s["workloads"][workload]["digest_head"] for s in (a, b)]
        if heads[0] != heads[1]:
            print(f"{workload}: digest head mismatch {heads[0]} != {heads[1]}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

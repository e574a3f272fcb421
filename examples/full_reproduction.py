"""Full reproduction: every table and figure, one report.

Regenerates all 17 evaluation artifacts (Tables 2-3, Figures 3-16, the
Section 10 headline) plus the paper-vs-measured anchor scoreboard and
writes them into a single markdown report — the complete evaluation
section of the paper, re-derived.

Run:  python examples/full_reproduction.py [report.md]
      (takes a minute or two; the campaign cache is shared across figures)
"""

import importlib
import sys
import time
from pathlib import Path

FIGURES = (
    "table2",
    "table3",
    *(f"fig{n:02d}" for n in range(3, 17)),
    "headline",
)


def anchor_scoreboard() -> str:
    from repro.model import simulate_cpu_run, simulate_gpu_run
    from repro.model.calibration import PAPER_ANCHORS as A
    from repro.model.framework.tables import render_table

    rows = []
    checks = [
        ("rhodo CPU 2048k/64 [TS/s]", A.rhodo_cpu_2048k_64r_ts,
         simulate_cpu_run("rhodo", 2_048_000, 64).ts_per_s),
        ("rhodo CPU @1e-7 [TS/s]", A.rhodo_cpu_2048k_64r_ts_e7,
         simulate_cpu_run("rhodo", 2_048_000, 64, kspace_error=1e-7).ts_per_s),
        ("lj CPU single [TS/s]", A.lj_cpu_2048k_64r_ts_single,
         simulate_cpu_run("lj", 2_048_000, 64, precision="single").ts_per_s),
        ("lj CPU double [TS/s]", A.lj_cpu_2048k_64r_ts_double,
         simulate_cpu_run("lj", 2_048_000, 64, precision="double").ts_per_s),
        ("rhodo GPU 2048k/8 [TS/s]", A.rhodo_gpu_2048k_8g_ts,
         simulate_gpu_run("rhodo", 2_048_000, 8).ts_per_s),
        ("rhodo GPU @1e-7 [TS/s]", A.rhodo_gpu_2048k_8g_ts_e7,
         simulate_gpu_run("rhodo", 2_048_000, 8, kspace_error=1e-7).ts_per_s),
        ("lj GPU single [TS/s]", A.lj_gpu_2048k_8g_ts_single,
         simulate_gpu_run("lj", 2_048_000, 8, precision="single").ts_per_s),
        ("lj GPU double [TS/s]", A.lj_gpu_2048k_8g_ts_double,
         simulate_gpu_run("lj", 2_048_000, 8, precision="double").ts_per_s),
        ("rhodo CPU [ns/day]", A.rhodo_cpu_ns_per_day,
         simulate_cpu_run("rhodo", 2_048_000, 64).ns_per_day(2.0)),
        ("rhodo GPU [ns/day]", A.rhodo_gpu_ns_per_day,
         simulate_gpu_run("rhodo", 2_048_000, 8).ns_per_day(2.0)),
    ]
    for name, paper, measured in checks:
        delta = 100.0 * (measured - paper) / paper
        rows.append([name, f"{paper:.2f}", f"{measured:.2f}", f"{delta:+.1f}%"])
    return render_table(["anchor", "paper", "measured", "delta"], rows)


def main(output: Path) -> None:
    sections = ["# Full reproduction report\n"]
    sections.append("## Paper-vs-measured anchors\n")
    sections.append("```\n" + anchor_scoreboard() + "\n```\n")

    total_start = time.perf_counter()
    for name in FIGURES:
        start = time.perf_counter()
        module = importlib.import_module(f"repro.figures.{name}")
        rendered = module.generate().render()
        elapsed = time.perf_counter() - start
        print(f"  {name:<9s} regenerated in {elapsed:6.2f}s")
        sections.append(f"## {name}\n")
        sections.append("```\n" + rendered + "\n```\n")

    output.write_text("\n".join(sections))
    print(f"\nwrote {output} ({output.stat().st_size / 1024:.0f} KiB) in "
          f"{time.perf_counter() - total_start:.1f}s")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path("reproduction_report.md"))

"""Campaign specs: one declarative TOML file -> a validated job matrix.

A spec has three tables::

    [campaign]
    name    = "precision-sweep"          # required
    out     = "BENCH_campaign.json"      # merged report destination
    figures = ["table2"]                 # regenerate after the run
    pool_workers = 2                     # batch-service pool size

    [base]                               # JobSpec defaults for every cell
    benchmark = "lj"
    n_atoms   = 500
    steps     = 40

    [sweep]                              # axes: field -> list of values
    precision = ["single", "double"]
    workers   = [1, 2]

Expansion is the cartesian product of the sweep axes over the base
section — 4 cells above.  Axes are cycled in declaration order with
the *last* axis fastest, so cell order is deterministic and diffs
stay readable.  Validation is strict: unknown fields, empty axes and
an axis that repeats a ``[base]`` key all raise :class:`CampaignError`
before anything runs.

Because ``workers`` (and the other strategy knobs) are excluded from
the job content address, sweeping them collapses cells onto the same
address — the batch service then executes the physics once and answers
every collapsed cell from cache or in-flight coalescing.  That is the
paper-campaign workflow: wide matrices, paid for once per unique
physics.

Parsing uses the standard library's :mod:`tomllib` — no third-party
dependency.
"""

from __future__ import annotations

import hashlib
import itertools
import tomllib
from dataclasses import dataclass
from pathlib import Path

from repro.service import JobSpec

__all__ = [
    "CampaignError",
    "CampaignSpec",
    "parse_campaign",
    "load_campaign",
    "JOB_FIELDS",
    "CAMPAIGN_FIELDS",
]

#: JobSpec fields a ``[base]`` section or sweep axis may set.
#: ``fault_plan`` is deliberately excluded: fault injection is a
#: reliability-test knob, not a characterization axis.
JOB_FIELDS = (
    "benchmark",
    "deck",
    "n_atoms",
    "steps",
    "seed",
    "precision",
    "backend",
    "workers",
    "checkpoint_every",
    "tag",
)

#: Keys the ``[campaign]`` table understands.
CAMPAIGN_FIELDS = ("name", "out", "figures", "pool_workers", "timeout_seconds")


class CampaignError(ValueError):
    """A campaign spec is malformed; the message names every problem."""


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign: base job config + sweep axes.

    Construct via :func:`parse_campaign` / :func:`load_campaign`; the
    constructor re-validates so programmatic construction is equally
    safe.
    """

    name: str
    base: dict
    sweep: dict
    out: str = "BENCH_campaign.json"
    figures: tuple = ()
    pool_workers: int = 2
    timeout_seconds: float = 600.0
    #: SHA-256 of the source TOML text (provenance; None if built in code).
    source_sha256: str | None = None

    def __post_init__(self) -> None:
        problems = _validate_tables(self.base, self.sweep)
        if not self.name:
            problems.insert(0, "[campaign] name must be a non-empty string")
        if int(self.pool_workers) < 1:
            problems.append("[campaign] pool_workers must be >= 1")
        if problems:
            raise CampaignError("; ".join(problems))

    @property
    def axes(self) -> dict:
        """Sweep axes in declaration order (axis -> tuple of values)."""
        return {key: tuple(values) for key, values in self.sweep.items()}

    @property
    def n_cells(self) -> int:
        cells = 1
        for values in self.sweep.values():
            cells *= len(values)
        return cells

    def expand(self) -> list[JobSpec]:
        """The job matrix: one validated JobSpec per sweep cell."""
        names = list(self.sweep)
        jobs = []
        for combo in itertools.product(*(self.sweep[n] for n in names)):
            cell = dict(self.base)
            cell.update(zip(names, combo))
            try:
                jobs.append(JobSpec(**cell))
            except (ValueError, KeyError) as exc:
                where = ", ".join(
                    f"{n}={v!r}" for n, v in zip(names, combo)
                ) or "<no axes>"
                raise CampaignError(f"cell ({where}): {exc}") from exc
        return jobs


def _validate_tables(base, sweep) -> list[str]:
    problems = []
    for key in base:
        if key not in JOB_FIELDS:
            problems.append(
                f"[base] unknown field {key!r}; allowed: {sorted(JOB_FIELDS)}"
            )
    for key, values in sweep.items():
        if key not in JOB_FIELDS:
            problems.append(
                f"[sweep] unknown axis {key!r}; allowed: {sorted(JOB_FIELDS)}"
            )
            continue
        if key in base:
            problems.append(
                f"[sweep] axis {key!r} duplicates a [base] key — "
                "set it in exactly one place"
            )
        if not isinstance(values, (list, tuple)):
            problems.append(f"[sweep] axis {key!r} must be a list of values")
        elif len(values) == 0:
            problems.append(f"[sweep] axis {key!r} is empty")
    return problems


def _loads_toml(text: str) -> dict:
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise CampaignError(f"invalid TOML: {exc}") from exc


def parse_campaign(text: str) -> CampaignSpec:
    """Parse and validate one campaign spec from TOML text."""
    data = _loads_toml(text)
    if not isinstance(data, dict):
        raise CampaignError("spec must be a TOML document of tables")
    problems = []
    unknown_tables = sorted(set(data) - {"campaign", "base", "sweep"})
    if unknown_tables:
        problems.append(
            f"unknown table(s) {unknown_tables}; expected [campaign], "
            "[base], [sweep]"
        )
    meta = data.get("campaign", {})
    base = data.get("base", {})
    sweep = data.get("sweep", {})
    for section, content in (("campaign", meta), ("base", base), ("sweep", sweep)):
        if not isinstance(content, dict):
            problems.append(f"[{section}] must be a table")
    if isinstance(meta, dict):
        for key in meta:
            if key not in CAMPAIGN_FIELDS:
                problems.append(
                    f"[campaign] unknown field {key!r}; allowed: "
                    f"{sorted(CAMPAIGN_FIELDS)}"
                )
    if problems:
        raise CampaignError("; ".join(problems))

    figures = meta.get("figures", [])
    if isinstance(figures, str):
        figures = [figures]
    return CampaignSpec(
        name=str(meta.get("name", "")),
        base=dict(base),
        sweep=dict(sweep),
        out=str(meta.get("out", "BENCH_campaign.json")),
        figures=tuple(figures),
        pool_workers=int(meta.get("pool_workers", 2)),
        timeout_seconds=float(meta.get("timeout_seconds", 600.0)),
        source_sha256=hashlib.sha256(text.encode()).hexdigest(),
    )


def load_campaign(path: str | Path) -> CampaignSpec:
    """Read and validate a campaign spec file."""
    return parse_campaign(Path(path).read_text())

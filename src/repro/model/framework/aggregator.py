"""The campaign results store — the framework's ``runs.csv`` analogue.

The authors' artifact collects every run into ``<bench>/runs.csv``
files that the chart generators consume; :class:`RunsTable` plays that
role here, with csv round-tripping and simple query helpers.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.model.framework.runner import RunRecord

__all__ = ["RunsTable"]


class RunsTable:
    """An append-only table of :class:`RunRecord` rows."""

    def __init__(self, records: Iterable[RunRecord] = ()) -> None:
        self._records: list[RunRecord] = list(records)

    def add(self, record: RunRecord) -> None:
        self._records.append(record)

    def extend(self, records: Iterable[RunRecord]) -> None:
        self._records.extend(records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self._records)

    # ------------------------------------------------------------- query
    def query(
        self,
        *,
        benchmark: str | None = None,
        platform: str | None = None,
        size_k: int | None = None,
        resources: int | None = None,
        label: str | None = None,
        predicate: Callable[[RunRecord], bool] | None = None,
    ) -> list[RunRecord]:
        """Filter rows by any combination of campaign dimensions."""
        out = []
        for record in self._records:
            if benchmark is not None and record.benchmark != benchmark:
                continue
            if platform is not None and record.platform != platform:
                continue
            if size_k is not None and record.size_k != size_k:
                continue
            if resources is not None and record.resources != resources:
                continue
            if label is not None and record.label != label:
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def series(
        self, field: str, *, sort_by: str = "resources", **filters
    ) -> list[tuple]:
        """``(sort_key, field_value)`` pairs for plotting one curve."""
        rows = self.query(**filters)
        rows.sort(key=lambda r: getattr(r, sort_by))
        return [(getattr(r, sort_by), getattr(r, field)) for r in rows]

    # --------------------------------------------------------------- csv
    def to_csv(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(RunRecord.CSV_FIELDS)
            for record in self._records:
                writer.writerow(record.to_row())

    @classmethod
    def from_csv(cls, path: str | Path) -> "RunsTable":
        with Path(path).open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            if tuple(header) != RunRecord.CSV_FIELDS:
                raise ValueError(f"unexpected runs.csv header: {header}")
            return cls(RunRecord.from_row(row) for row in reader)

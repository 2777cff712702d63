"""Cohort container and CSV conventions.

A cohort is a rectangular table: one row per record, one column per node
(``var@t`` / ``var@entry`` / ``var``). Cells hold state labels as strings;
an empty CSV cell is a missing observation (None in memory). Record ids are
assigned positionally at load time and are carried unchanged through
subsets and splits so that every downstream tie-break and reduction is
stable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, UnknownState, UnknownVariable
from .model import DiscreteNetwork

MISSING = ""  # CSV representation of a missing cell


@dataclass
class Cohort:
    columns: tuple[str, ...]
    rows: list[tuple[str | None, ...]]
    ids: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.columns = tuple(self.columns)
        if self.ids is None:
            self.ids = np.arange(len(self.rows), dtype=np.int64)
        else:
            self.ids = np.asarray(self.ids, dtype=np.int64)
        if len(self.ids) != len(self.rows):
            raise ValueError("ids and rows must have equal length")

    def __len__(self) -> int:
        return len(self.rows)

    def col_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise UnknownVariable(f"cohort has no column {name!r}") from None

    def column(self, name: str) -> list[str | None]:
        i = self.col_index(name)
        return [row[i] for row in self.rows]

    def subset(self, positions: Sequence[int]) -> "Cohort":
        """New cohort with the given row positions; original ids kept."""
        pos = list(positions)
        return Cohort(
            columns=self.columns,
            rows=[self.rows[i] for i in pos],
            ids=self.ids[pos],
        )


def read_cohort_csv(path: str | Path) -> Cohort:
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        columns = tuple(h.strip() for h in header)
        rows: list[tuple[str | None, ...]] = []
        for lineno, raw in enumerate(reader, start=2):
            if len(raw) != len(columns):
                raise DataError(
                    f"{path}: row {lineno} has {len(raw)} cells, header has {len(columns)}"
                )
            rows.append(tuple(cell if cell != MISSING else None for cell in raw))
    return Cohort(columns=columns, rows=rows)


def write_cohort_csv(cohort: Cohort, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cohort.columns)
        for row in cohort.rows:
            writer.writerow([MISSING if cell is None else cell for cell in row])


def encode_columns(
    net: DiscreteNetwork,
    cohort: Cohort,
    columns: Iterable[str] | None = None,
    source: str = "cohort",
) -> dict[str, np.ndarray]:
    """Encode cohort columns as int arrays of state indices; -1 is missing.

    Columns default to every cohort column that names a network node.
    UnknownState is raised with file/row/column context via DataError at the
    CLI boundary; here the message names row id and column.
    """
    if columns is None:
        columns = [c for c in cohort.columns if c in net]
    out: dict[str, np.ndarray] = {}
    for name in columns:
        var = net.var(name)
        lut = {s: i for i, s in enumerate(var.states)}
        ci = cohort.col_index(name)
        arr = np.full(len(cohort), -1, dtype=np.int64)
        for r, row in enumerate(cohort.rows):
            cell = row[ci]
            if cell is None:
                continue
            code = lut.get(cell)
            if code is None:
                raise UnknownState(
                    f"{source}: record {int(cohort.ids[r])}, column {name!r}: "
                    f"state {cell!r} is not one of {list(var.states)}"
                )
            arr[r] = code
        out[name] = arr
    return out

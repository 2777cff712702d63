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
        if len(set(columns)) != len(columns):
            twice = next(c for i, c in enumerate(columns) if c in columns[:i])
            raise DataError(f"{path}: column {twice!r} appears twice in the header")
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
        # csv writes None as an empty cell (a lone one as "", as MISSING is)
        writer.writerows(cohort.rows)


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


_KEY_LIMIT = 1 << 62


def unique_rows(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a code matrix (entries >= -1) and each row's index
    among them, as ``np.unique(codes, axis=0, return_inverse=True)`` gives.

    Each row folds into one int64 key, a mixed-radix number with digits
    code + 1 and the first column most significant, so the keys sort as the
    rows do and only a 1-D unique runs. Before a fold could pass 2**62 the
    keys are replaced by their dense ranks, which keep that order.
    """
    digits = np.ascontiguousarray(codes.T, dtype=np.int64) + 1  # one row per column
    keys = np.zeros(len(codes), dtype=np.int64)
    bound = 1  # every key lies in [0, bound)
    for digit, radix in zip(digits, (digits.max(axis=1, initial=0) + 1).tolist()):
        if bound * radix > _KEY_LIMIT:
            _, keys = np.unique(keys, return_inverse=True)
            bound = int(keys.max()) + 1
        keys = keys * radix + digit
        bound *= radix
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return codes[first], inverse

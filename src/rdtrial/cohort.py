"""Cohort container and CSV conventions.

A cohort is a rectangular table: one row per record, one column per node
(``var@t`` / ``var@entry`` / ``var``), held as a small-int code matrix whose
codes index each column's labels; -1 is a missing observation (an empty CSV
cell). No cell is stored as a string. Record ids are assigned positionally
at load time and are carried unchanged through subsets and splits so that
every downstream tie-break and reduction is stable.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, RaggedRow, UnknownState, UnknownVariable
from .model import DiscreteNetwork

MISSING = ""  # CSV representation of a missing cell


@dataclass(frozen=True, eq=False)
class Cohort:
    """Records x columns of codes: ``codes[r, j]`` indexes ``labels[j]``,
    and -1 is a missing cell. :meth:`from_rows` builds one from string
    cells. The constructor stores ``codes`` C-ordered in the smallest signed
    int type that holds every code, and ``codes`` and ``ids`` (default:
    positions) as read-only views."""

    columns: tuple[str, ...]
    codes: np.ndarray
    labels: tuple[tuple[str, ...], ...]
    ids: np.ndarray | None = None

    def __post_init__(self):
        labels = tuple(map(tuple, self.labels))
        dtype = np.min_scalar_type(-max([1, *map(len, labels)]))
        codes = np.asarray(self.codes).astype(dtype, order="C", copy=False).view()
        ids = np.arange(len(codes)) if self.ids is None else self.ids
        ids = np.asarray(ids, dtype=np.int64).view()
        if codes.shape != (len(ids), len(self.columns)) or len(labels) != len(self.columns):
            raise ValueError("codes must be (records, columns), with an id per record "
                             "and a label tuple per column")
        codes.flags.writeable = ids.flags.writeable = False
        for name, value in (("columns", tuple(self.columns)), ("codes", codes),
                            ("labels", labels), ("ids", ids)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_rows(
        cls,
        columns: Sequence[str],
        rows: Iterable[Sequence[str | None]],
        ids: Sequence[int] | np.ndarray | None = None,
    ) -> "Cohort":
        """Cohort from rows of string cells; None and "" are missing.

        ``rows`` is read once. Equal rows share one number through a dict,
        so a record costs one tuple hash, and only the distinct rows are
        factorized, by the column factorizer :func:`read_cohort_csv` also
        uses. A row whose cell count differs from the column count raises
        RaggedRow with the first such row's position.
        """
        distinct = _Numbering()
        record = np.fromiter(map(distinct.__getitem__, map(tuple, rows)), dtype=np.intp)
        return _expand(tuple(columns), list(distinct), record, ids)

    def __len__(self) -> int:
        return len(self.codes)

    def col_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise UnknownVariable(f"cohort has no column {name!r}") from None

    def column(self, name: str) -> list[str | None]:
        """The column's cells as labels, None where missing."""
        j = self.col_index(name)
        # the trailing None is what a missing cell's code -1 picks
        return np.array([*self.labels[j], None], dtype=object)[self.codes[:, j]].tolist()

    @property
    def rows(self) -> list[tuple[str | None, ...]]:
        """Each record's cells as a tuple of labels, None where missing; a
        copy built on each read."""
        return list(_label_rows(self))

    def subset(self, positions: Sequence[int]) -> "Cohort":
        """New cohort with the given row positions; original ids kept."""
        pos = np.asarray(positions, dtype=np.intp)
        return Cohort(self.columns, self.codes[pos], self.labels, self.ids[pos])


def _label_rows(cohort: Cohort) -> Iterable[tuple[str | None, ...]]:
    """The cohort's rows of labels, made by one label lookup per column and
    zipped into tuples only as they are read."""
    if not cohort.columns:
        return [()] * len(cohort)
    return zip(*map(cohort.column, cohort.columns))


class _Numbering(dict):
    """``numbering[key]`` is the key's number among the distinct keys in
    order of first lookup; a key met for the first time gets the next one."""

    def __missing__(self, key):
        self[key] = number = len(self)
        return number


def _expand(
    columns: tuple[str, ...],
    rows: list[Sequence[str | None]],
    record: np.ndarray,
    ids: Sequence[int] | np.ndarray | None = None,
) -> Cohort:
    """The cohort whose record r holds the cells ``rows[record[r]]``.

    ``rows`` are in order of first appearance among the records (two may
    hold equal cells). Each column's cells are numbered in one pass, then
    the missing ones map to -1 and the labels are renumbered; the record
    index expands the codes. A row whose cell count differs from the column
    count raises RaggedRow with the first record that holds it.
    """
    width = len(columns)
    if set(map(len, rows)) - {width}:
        k = next(k for k, row in enumerate(rows) if len(row) != width)
        raise RaggedRow(int(np.argmax(record == k)), len(rows[k]), width)
    cells = list(chain.from_iterable(rows))
    labels = []
    table = np.empty((len(rows), width), dtype=np.int64)
    for j in range(width):
        number = _Numbering()  # of each cell, in order of first appearance
        first = np.fromiter(map(number.__getitem__, cells[j::width]), dtype=np.intp,
                            count=len(rows))
        held = [cell is not None and cell != MISSING for cell in number]
        labels.append(tuple(compress(number, held)))
        table[:, j] = np.where(held, np.cumsum(held) - 1, -1)[first]
    distinct = Cohort(columns, table, labels)  # its codes narrowed before they expand
    return Cohort(columns, distinct.codes[record], distinct.labels, ids)


def read_cohort_csv(path: str | Path) -> Cohort:
    """Read a cohort CSV: a header row, then one row per record.

    The lines after the header stream past once, each numbered among the
    distinct lines, so a repeated line costs one dict lookup. If no distinct
    line holds a ``"``, each record is one line: csv.reader parses each
    distinct line once, and the rows expand as in :meth:`Cohort.from_rows`.
    Otherwise a quoted cell may hold a line break, and csv.reader reads the
    lines again in file order, its rows streaming into
    :meth:`Cohort.from_rows`. Both give the same cohort.

    DataError names the file for an empty file, a header naming a column
    twice, a row whose cell count differs from the header's, a cell csv
    cannot read (one over ``csv.field_size_limit()``) and bytes that are not
    UTF-8. Rows are numbered from the header's 1; a csv error names the row
    where each record is one line, and the line otherwise.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
            except csv.Error as exc:
                raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
            if header is None:
                raise DataError(f"{path}: empty file, expected a header row")
            columns = tuple(h.strip() for h in header)
            if len(set(columns)) != len(columns):
                twice = next(c for i, c in enumerate(columns) if c in columns[:i])
                raise DataError(f"{path}: column {twice!r} appears twice in the header")
            head = reader.line_num  # the lines the header takes
            # opened with newline="", the file iterates over exactly the
            # lines csv.reader(fh) pulls
            lines = _Numbering()
            line_of = np.fromiter(map(lines.__getitem__, fh), dtype=np.intp)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason} "
                        f"({exc.object[exc.start:exc.end]!r})") from None
    distinct = list(lines)
    quoted = any(map(operator.contains, distinct, repeat('"')))
    reader = csv.reader(map(distinct.__getitem__, line_of) if quoted else distinct)
    try:
        if quoted:
            return Cohort.from_rows(columns, reader)
        return _expand(columns, list(reader), line_of)
    except csv.Error as exc:  # named by its line, or by the first record on that line
        where = (f"line {head + reader.line_num}" if quoted else
                 f"row {int(np.argmax(line_of == reader.line_num - 1)) + 2}")
        raise DataError(f"{path}: {where}: {exc}") from None
    except RaggedRow as exc:  # the header is row 1
        raise DataError(
            f"{path}: row {exc.position + 2} has {exc.cells} cells, header has {len(columns)}"
        ) from None


def write_cohort_csv(cohort: Cohort, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cohort.columns)
        # csv writes None as an empty cell (a lone one as "", as MISSING is);
        # the rows stream, so no list of every row is held
        writer.writerows(_label_rows(cohort))


def encode_columns(net: DiscreteNetwork, cohort: Cohort, names: Sequence[str]) -> np.ndarray:
    """The (records, names) int64 matrix of state indices: column i holds
    network node ``names[i]``, and -1 is a missing cell. Every cell of a
    node the cohort has no column for is -1.

    Each column's labels map to the variable's states once, then one take
    maps the codes. UnknownState names the first record (in cohort order)
    of the first of ``names`` that holds a label that is not a state: its
    id and column.
    """
    out = np.full((len(cohort), len(names)), -1, dtype=np.int64)
    for i, name in enumerate(names):
        var = net.var(name)
        if name not in cohort.columns:
            continue
        j = cohort.col_index(name)
        lut = {s: k for k, s in enumerate(var.states)}
        # -2 marks a label that is no state; the trailing -1 is what a
        # missing cell's code -1 picks
        state = np.array([lut.get(label, -2) for label in cohort.labels[j]] + [-1],
                         dtype=np.int64)
        out[:, i] = state[cohort.codes[:, j]]
        if -2 in state:  # raise if a record holds that label
            held = np.flatnonzero(out[:, i] == -2)
            if held.size:
                r = held[0]
                raise UnknownState(
                    f"cohort: record {int(cohort.ids[r])}, column {name!r}: state "
                    f"{cohort.labels[j][cohort.codes[r, j]]!r} is not one of {list(var.states)}"
                )
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

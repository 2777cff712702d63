"""Cohort container and CSV/state-encoding round trips."""
from __future__ import annotations

import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdtrial.cohort import (
    MISSING,
    Cohort,
    encode_columns,
    read_cohort_csv,
    unique_rows,
    write_cohort_csv,
)
from rdtrial.errors import DataError, UnknownState, UnknownVariable
from rdtrial.learning import outcome_labels
from rdtrial.model import Cpt, DiscreteNetwork, VariableDef

from helpers import (
    chain_network,
    reference_encode_columns,
    reference_outcome_labels,
    reference_read_cohort_rows,
    reference_write_cohort_csv,
)


def test_csv_round_trip_with_missing(tmp_path):
    cohort = Cohort.from_rows(
        columns=("a", "b"),
        rows=[("0", "1"), (None, "0"), ("1", None)],
    )
    path = tmp_path / "cohort.csv"
    write_cohort_csv(cohort, path)
    back = read_cohort_csv(path)
    assert back.columns == cohort.columns
    assert back.rows == cohort.rows
    assert back.ids.tolist() == [0, 1, 2]


def _same_csv_bytes(cohort, tmp_path):
    fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
    write_cohort_csv(cohort, fast)
    reference_write_cohort_csv(cohort, ref)
    return fast.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("columns, rows", [
    (("a", "b", "c"), [("0", None, "1"), (None, None, None), ("1", "0", "0")]),
    (("a", "b"), [("0", None), ("1", None)]),                     # None last cell
    (("a",), [(None,), ("1",), (None,)]),                          # a lone None
    (("a,b", 'say "hi"'), [("x,y", '"q"'), (None, "p, q"), ("", None)]),
    (("a",), []),
])
def test_write_cohort_csv_matches_the_per_row_reference(tmp_path, columns, rows):
    assert _same_csv_bytes(Cohort.from_rows(columns=columns, rows=rows), tmp_path)


def test_write_cohort_csv_quotes_a_lone_missing_cell(tmp_path):
    # an empty line would read back as no row at all
    rows = [(None,), ("1",), (None,)]
    path = tmp_path / "cohort.csv"
    write_cohort_csv(Cohort.from_rows(columns=("a",), rows=rows), path)
    assert path.read_text(encoding="utf-8") == 'a\n""\n1\n""\n'
    assert read_cohort_csv(path).rows == rows


_LABEL = st.one_of(st.none(), st.text(alphabet='ab01 ,"', max_size=4))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.lists(st.tuples(*[_LABEL] * m), max_size=12)))
def test_write_cohort_csv_matches_the_reference_on_random_rows(tmp_path_factory, rows):
    m = len(rows[0]) if rows else 1
    cohort = Cohort.from_rows(columns=tuple(f"c{i}" for i in range(m)), rows=rows)
    assert _same_csv_bytes(cohort, tmp_path_factory.mktemp("csv"))


def _missing_as_none(rows):
    # from_rows reads "" as missing, as the CSV reader always has
    return [tuple(None if cell == MISSING else cell for cell in row) for row in rows]


_WIDTH_AND_ROWS = st.integers(1, 4).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.tuples(*[_LABEL] * m), max_size=12)))


@settings(max_examples=100, deadline=None)
@given(_WIDTH_AND_ROWS)
def test_from_rows_write_read_round_trip(tmp_path_factory, case):
    m, rows = case
    columns = tuple(f"c{i}" for i in range(m))
    cohort = Cohort.from_rows(columns, rows)
    want = _missing_as_none(rows)
    assert cohort.rows == want
    assert cohort.codes.shape == (len(rows), m) and cohort.codes.dtype.kind == "i"
    path = tmp_path_factory.mktemp("csv") / "cohort.csv"
    write_cohort_csv(cohort, path)
    back = read_cohort_csv(path)
    assert back.columns == columns
    assert back.rows == want
    assert back.ids.tolist() == list(range(len(rows)))
    assert reference_read_cohort_rows(path) == (columns, want)


_STATES = ("a", " b", 'x,"y"', "0")
_CELL = st.one_of(st.none(), st.just(MISSING), st.sampled_from(_STATES + ("zz",)))


def _flat_network(columns):
    uniform = np.full((1, len(_STATES)), 1.0 / len(_STATES))
    return DiscreteNetwork(
        variables=[VariableDef(c, _STATES) for c in columns],
        arcs=[],
        cpts={c: Cpt(c, (), uniform) for c in columns},
    )


def _same_encoding(net, cohort, columns, rows, names):
    try:
        want = reference_encode_columns(net, columns, rows, cohort.ids, names)
    except UnknownState as exc:
        with pytest.raises(UnknownState) as got:
            encode_columns(net, cohort, names)
        assert str(got.value) == str(exc)
    else:
        got = encode_columns(net, cohort, names)
        assert got.dtype == np.int64 and got.shape == (len(cohort), len(names))
        assert np.array_equal(got, want)
        for j, name in enumerate(names):
            if name not in columns:
                assert np.all(got[:, j] == -1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.tuples(*[_CELL] * m), max_size=20))),
    st.data())
def test_columnar_cohort_matches_the_per_cell_references(case, data):
    m, rows = case
    columns = tuple(f"c{i}" for i in range(m))
    ids = np.arange(len(rows)) * 3 + 5
    cohort = Cohort.from_rows(columns, rows, ids=ids)
    want = _missing_as_none(rows)
    # model nodes the cohort has no column for encode as all -1
    net = _flat_network(columns + ("d0", "d1"))
    names = data.draw(st.lists(st.sampled_from(net.names), unique=True))
    _same_encoding(net, cohort, columns, want, names)

    positions = data.draw(st.lists(st.integers(0, len(rows) - 1)) if rows else st.just([]))
    sub = cohort.subset(positions)
    sub_rows = [want[i] for i in positions]
    assert sub.rows == sub_rows
    assert sub.ids.tolist() == ids[positions].tolist()
    # a subset keeps every label, held or not: only held ones may raise
    _same_encoding(net, sub, columns, sub_rows, names)

    nodes = data.draw(st.lists(st.sampled_from(columns), unique=True))
    positive = data.draw(st.sampled_from(_STATES + ("zz",)))
    assert np.array_equal(outcome_labels(sub, nodes, positive),
                          reference_outcome_labels(columns, sub_rows, nodes, positive))


# rows drawn from a small pool repeat, so a ragged row's position among the
# rows differs from its position among the distinct rows
_RAW_ROWS = st.lists(
    st.lists(_LABEL.map(lambda c: MISSING if c is None else c), max_size=4),
    min_size=1, max_size=4,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=10))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", " c", "a,b"]), min_size=1, max_size=3), _RAW_ROWS)
def test_read_errors_match_the_per_cell_reference(tmp_path_factory, header, raw_rows):
    path = tmp_path_factory.mktemp("csv") / "cohort.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(raw_rows)
    try:
        columns, rows = reference_read_cohort_rows(path)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            read_cohort_csv(path)
        assert str(got.value) == str(exc)
    else:
        back = read_cohort_csv(path)
        assert back.columns == columns
        assert back.rows == rows


# raw file text: a header, then lines drawn from a small pool so that lines
# repeat, over an alphabet of separators, quotes, line breaks and labels;
# fragments may hold no line break or several, so records may span lines
_FRAGMENT = st.lists(st.sampled_from([",", '"', "\r", "\n", "a", "b", "ab"]), max_size=8).map("".join)
_RAW_FILE = st.tuples(
    _FRAGMENT,
    st.lists(_FRAGMENT, min_size=1, max_size=5).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=20)),
).map(lambda case: case[0] + "".join(case[1]))


@settings(max_examples=400, deadline=None)
@given(_RAW_FILE)
@example('a,b,c\nx","abc\ndef",z\n')               # one record on two lines
@example('a,b,c\nx","abc\ndef"x",z\n')              # ... each line holding two quotes
@example("a,b\r\n1,2\r\n1,2\r\n,3\r\n1,2\n")         # CRLF, then one LF
@example("a,b\r1,2\r1,2\r,3\r")                     # CR only
@example("a,b\n1,2\n\n1,2\n")                       # a blank line in the middle
@example("a,b\n1,2\n1,2\n\n")                       # a blank line at the end
@example("a,b\n1,2\n3,4")                           # no final newline
@example('x,y\n"a",b\na,b\n"a",b\n')                # equal cells, different text
@example("a,b\n")                                   # header only
@example("a,b")
@example("a,b\n1,2\n1,2\n1,2\n2,1\n1\n1,2\n1\n")     # ragged after repeats
@example("a,a\n1,2\n")
@example("")
def test_read_matches_the_per_cell_reference_on_raw_files(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "cohort.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        columns, rows = reference_read_cohort_rows(path)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            read_cohort_csv(path)
        assert str(got.value) == str(exc)
    else:
        back = read_cohort_csv(path)
        assert back.columns == columns
        assert back.rows == rows
        assert back.ids.tolist() == list(range(len(rows)))


_PLAIN = st.one_of(st.none(), st.sampled_from(["a", "b", " c", "01"]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.lists(st.tuples(*[_PLAIN] * m), min_size=1, max_size=12)))
def test_read_gives_the_same_cohort_with_and_without_quoted_cells(tmp_path_factory, rows):
    # quoting every cell leaves the labels as they are but makes the read
    # parse every line, not only the distinct ones, into Cohort.from_rows
    columns = tuple(f"c{i}" for i in range(len(rows[0])))
    cohorts = []
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        path = tmp_path_factory.mktemp("csv") / "cohort.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n", quoting=quoting)
            writer.writerow(columns)
            writer.writerows([MISSING if cell is None else cell for cell in row] for row in rows)
        with mock.patch.object(Cohort, "from_rows", wraps=Cohort.from_rows) as from_rows:
            cohorts.append(read_cohort_csv(path))
        # a lone missing cell is written quoted, so a one-column file may hold a quote
        quoted = quoting == csv.QUOTE_ALL or '"' in path.read_text(encoding="utf-8")
        assert from_rows.call_count == quoted
    fast, replayed = cohorts
    assert fast.columns == replayed.columns == columns
    assert fast.labels == replayed.labels
    assert fast.codes.dtype == replayed.codes.dtype
    assert np.array_equal(fast.codes, replayed.codes)
    assert np.array_equal(fast.ids, replayed.ids)
    assert fast.rows == _missing_as_none(rows)


def test_read_rejects_ragged_and_empty(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n0,1\n0\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 3"):
        read_cohort_csv(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        read_cohort_csv(empty)


def test_subset_keeps_original_ids():
    cohort = Cohort.from_rows(columns=("a",), rows=[("0",), ("1",), ("0",), ("1",)])
    sub = cohort.subset([3, 1])
    assert sub.ids.tolist() == [3, 1]
    assert sub.rows == [("1",), ("1",)]
    # subset of subset still traces back to the root ids
    assert sub.subset([0]).ids.tolist() == [3]


def test_column_access_errors():
    cohort = Cohort.from_rows(columns=("a",), rows=[("0",)])
    assert cohort.column("a") == ["0"]
    with pytest.raises(UnknownVariable):
        cohort.column("nope")
    with pytest.raises(ValueError):
        Cohort.from_rows(columns=("a",), rows=[("0",)], ids=np.array([1, 2]))


def test_encode_columns():
    net = chain_network()
    cohort = Cohort.from_rows(
        columns=("a", "b", "ignored"),
        rows=[("0", "1", "x"), ("1", None, "y")],
    )
    # columns in the order of names; c has no cohort column, "ignored" no node
    enc = encode_columns(net, cohort, ["b", "c", "a"])
    assert enc.dtype == np.int64
    assert enc.tolist() == [[1, -1, 0], [-1, -1, 1]]
    with pytest.raises(UnknownVariable):
        encode_columns(net, cohort, ["ignored"])


def test_encode_columns_unknown_state_names_context():
    net = chain_network()
    cohort = Cohort.from_rows(columns=("a",), rows=[("2",)], ids=np.array([41]))
    with pytest.raises(UnknownState, match=r"record 41, column 'a'"):
        encode_columns(net, cohort, ["a"])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 40),
    # 64 and more columns overflow a plain mixed-radix key, so the dense
    # re-ranking of the keys runs
    st.sampled_from([0, 1, 2, 3, 8, 64, 70]),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
)
def test_unique_rows_equal_numpy_unique_over_rows(n, m, top, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(-1, top + 1, size=(n, m))
    codes[rng.random(n) < 0.2] = -1  # rows with every cell missing
    for r in range(1, n):
        if rng.random() < 0.3:
            codes[r] = codes[rng.integers(0, r)]  # repeated rows
    for matrix in (codes, codes >= 0):
        rows, inverse = unique_rows(matrix)
        want_rows, want_inverse = np.unique(matrix, axis=0, return_inverse=True)
        assert rows.shape == want_rows.shape
        assert rows.dtype == want_rows.dtype
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(inverse, want_inverse.reshape(-1))

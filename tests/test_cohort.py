"""Cohort container and CSV/state-encoding round trips."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdtrial.cohort import (
    Cohort,
    encode_columns,
    read_cohort_csv,
    unique_rows,
    write_cohort_csv,
)
from rdtrial.errors import DataError, UnknownState, UnknownVariable

from helpers import chain_network, reference_write_cohort_csv


def test_csv_round_trip_with_missing(tmp_path):
    cohort = Cohort(
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
    assert _same_csv_bytes(Cohort(columns=columns, rows=rows), tmp_path)


def test_write_cohort_csv_quotes_a_lone_missing_cell(tmp_path):
    # an empty line would read back as no row at all
    rows = [(None,), ("1",), (None,)]
    path = tmp_path / "cohort.csv"
    write_cohort_csv(Cohort(columns=("a",), rows=rows), path)
    assert path.read_text(encoding="utf-8") == 'a\n""\n1\n""\n'
    assert read_cohort_csv(path).rows == rows


_LABEL = st.one_of(st.none(), st.text(alphabet='ab01 ,"', max_size=4))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.lists(st.tuples(*[_LABEL] * m), max_size=12)))
def test_write_cohort_csv_matches_the_reference_on_random_rows(tmp_path_factory, rows):
    m = len(rows[0]) if rows else 1
    cohort = Cohort(columns=tuple(f"c{i}" for i in range(m)), rows=rows)
    assert _same_csv_bytes(cohort, tmp_path_factory.mktemp("csv"))


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
    cohort = Cohort(columns=("a",), rows=[("0",), ("1",), ("0",), ("1",)])
    sub = cohort.subset([3, 1])
    assert sub.ids.tolist() == [3, 1]
    assert sub.rows == [("1",), ("1",)]
    # subset of subset still traces back to the root ids
    assert sub.subset([0]).ids.tolist() == [3]


def test_column_access_errors():
    cohort = Cohort(columns=("a",), rows=[("0",)])
    assert cohort.column("a") == ["0"]
    with pytest.raises(UnknownVariable):
        cohort.column("nope")
    with pytest.raises(ValueError):
        Cohort(columns=("a",), rows=[("0",)], ids=np.array([1, 2]))


def test_encode_columns():
    net = chain_network()
    cohort = Cohort(
        columns=("a", "b", "ignored"),
        rows=[("0", "1", "x"), ("1", None, "y")],
    )
    enc = encode_columns(net, cohort)
    assert set(enc) == {"a", "b"}  # non-model columns are skipped by default
    assert enc["a"].tolist() == [0, 1]
    assert enc["b"].tolist() == [1, -1]


def test_encode_columns_unknown_state_names_context():
    net = chain_network()
    cohort = Cohort(columns=("a",), rows=[("2",)], ids=np.array([41]))
    with pytest.raises(UnknownState, match=r"record 41, column 'a'"):
        encode_columns(net, cohort)


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

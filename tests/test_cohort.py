"""Cohort container and CSV/state-encoding round trips."""
from __future__ import annotations

import numpy as np
import pytest

from rdtrial.cohort import Cohort, encode_columns, read_cohort_csv, write_cohort_csv
from rdtrial.errors import DataError, UnknownState, UnknownVariable

from helpers import chain_network


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

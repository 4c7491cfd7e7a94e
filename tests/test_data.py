from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aebayes.data import (
    DataError,
    Dataset,
    load_dataset,
    summarize,
)
from aebayes_testkit import loads_dataset, write_dataset

VALID = "site_id,patient_id,ae_count\nA,p1,3\nA,p2,0\nB,p3,140\n"


def test_loads_valid():
    ds = loads_dataset(VALID)
    assert ds.n_patients == 3
    assert ds.n_sites == 2
    assert ds.site_ids == ("A", "B")
    assert list(ds.site_sizes()) == [2, 1]
    assert list(ds.site_totals()) == [3, 140]
    assert list(ds.counts()) == [3, 0, 140]


def test_site_order_is_first_appearance():
    ds = loads_dataset("site_id,patient_id,ae_count\nZ,p1,1\nA,p2,1\nZ,p3,2\n")
    assert ds.site_ids == ("Z", "A")
    assert ds.site_of == (0, 1, 0)


def test_blank_trailing_lines_skipped():
    ds = loads_dataset(VALID + "\n\n")
    assert ds.n_patients == 3


@pytest.mark.parametrize("text, fragment", [
    ("", "empty file"),
    ("patient_id,site_id,ae_count\nA,p1,1\n", "line 1: expected header"),
    ("site_id,patient_id,ae_count\nA,p1\n", "line 2: expected 3 columns"),
    ("site_id,patient_id,ae_count\nA,p1,x\n", "line 2: ae_count 'x' is not an integer"),
    ("site_id,patient_id,ae_count\nA,p1,1.5\n", "not an integer"),
    # int() takes these, but they are not ASCII digits
    ("site_id,patient_id,ae_count\nA,p1,1_000\n", "line 2: ae_count '1_000' is not an integer"),
    ("site_id,patient_id,ae_count\nA,p1,\u0663\n", "line 2: ae_count '\u0663' is not an integer"),
    ("site_id,patient_id,ae_count\nA,p1,\uff11\uff12\n", "line 2: ae_count '\uff11\uff12' is not an integer"),
    ("site_id,patient_id,ae_count\nA,p1,-1\n", "line 2: ae_count must be >= 0"),
    ("site_id,patient_id,ae_count\nA,p1,1\nB,p1,2\n", "line 3: duplicate patient_id 'p1'"),
    # the site's total reaches 2**53 + 1 on line 3; another site's rows do not count
    ("site_id,patient_id,ae_count\nA,p1,9007199254740992\nB,p2,1\nA,p3,1\n",
     "line 4: ae_count 1 takes site 'A' to a total of 9007199254740993, above 2**53"),
    ("site_id,patient_id,ae_count\n,p1,1\n", "line 2: empty identifier"),
    ("site_id,patient_id,ae_count\nA,,1\n", "empty identifier"),
    ("site_id,patient_id,ae_count\n", "no data rows"),
])
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(DataError) as exc_info:
        loads_dataset(text)
    assert fragment in str(exc_info.value)


def test_load_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_dataset(tmp_path / "nope.csv")


def test_load_reads_a_leading_byte_order_mark_as_nothing(tmp_path):
    """Spreadsheet exports often start with a UTF-8 byte-order mark."""
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + VALID.encode("utf-8"))
    assert load_dataset(path) == loads_dataset(VALID)


def test_subset_by_sites_preserves_row_order():
    ds = loads_dataset(VALID)
    sub = ds.subset_by_sites(["B", "A"])  # request order must not matter
    assert sub.patient_ids == ("p1", "p2", "p3")
    only_b = ds.subset_by_sites(["B"])
    assert only_b.site_ids == ("B",)
    assert only_b.n_patients == 1


def test_subset_unknown_site():
    ds = loads_dataset(VALID)
    with pytest.raises(DataError, match="unknown site_id"):
        ds.subset_by_sites(["A", "Q"])


def test_subset_of_no_sites():
    with pytest.raises(DataError, match="no sites selected"):
        loads_dataset(VALID).subset_by_sites([])


def test_write_load_round_trip(tmp_path):
    ds = loads_dataset(VALID)
    path = tmp_path / "out.csv"
    write_dataset(ds, path)
    assert path.read_text() == VALID
    assert load_dataset(path) == ds


def test_summarize():
    s = summarize(loads_dataset(VALID))
    assert (s.n_patients, s.n_sites) == (3, 2)
    assert s.mean_site_size == pytest.approx(1.5)
    assert (s.min_site_size, s.max_site_size) == (1, 2)
    assert (s.min_count, s.max_count) == (0, 140)


@st.composite
def datasets(draw):
    n_sites = draw(st.integers(min_value=1, max_value=6))
    sizes = [draw(st.integers(min_value=1, max_value=4)) for _ in range(n_sites)]
    rows = []
    for j, n in enumerate(sizes):
        for _ in range(n):
            count = draw(st.integers(min_value=0, max_value=200))
            rows.append((f"s{j}", f"p{len(rows)}", count))
    return Dataset.from_rows(rows)


@settings(max_examples=50, deadline=None)
@given(datasets())
def test_round_trip_property(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("rt") / "ds.csv"
    write_dataset(ds, path)
    assert load_dataset(path) == ds


@settings(max_examples=50, deadline=None)
@given(datasets())
def test_site_arrays_consistent(ds):
    assert ds.site_sizes().sum() == ds.n_patients
    assert ds.site_totals().sum() == ds.counts().sum()
    assert len(ds.site_ids) == ds.n_sites
    # every site appears, and in order of first appearance
    assert sorted(set(ds.site_of), key=ds.site_of.index) == list(range(ds.n_sites))

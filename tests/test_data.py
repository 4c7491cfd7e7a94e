from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aebayes.data import (
    DataError,
    Dataset,
    PatientRecord,
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
    assert ds.sites["Z"] == (0, 2)


def test_blank_trailing_lines_skipped():
    ds = loads_dataset(VALID + "\n\n")
    assert ds.n_patients == 3


@pytest.mark.parametrize("text, fragment", [
    ("", "empty file"),
    ("patient_id,site_id,ae_count\nA,p1,1\n", "line 1: expected header"),
    ("site_id,patient_id,ae_count\nA,p1\n", "line 2: expected 3 columns"),
    ("site_id,patient_id,ae_count\nA,p1,x\n", "line 2: ae_count 'x' is not an integer"),
    ("site_id,patient_id,ae_count\nA,p1,1.5\n", "not an integer"),
    ("site_id,patient_id,ae_count\nA,p1,-1\n", "line 2: ae_count must be >= 0"),
    ("site_id,patient_id,ae_count\nA,p1,1\nB,p1,2\n", "line 3: duplicate patient_id 'p1'"),
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


def test_negative_count_rejected_at_record_level():
    with pytest.raises(DataError):
        PatientRecord(patient_id="p", site_id="s", ae_count=-1)


def test_duplicate_patient_across_sites_rejected():
    recs = (PatientRecord("p1", "A", 1), PatientRecord("p1", "B", 2))
    with pytest.raises(DataError, match="duplicate patient_id"):
        Dataset(records=recs)


def test_empty_dataset_rejected():
    with pytest.raises(DataError):
        Dataset(records=())


def test_subset_by_sites_preserves_row_order():
    ds = loads_dataset(VALID)
    sub = ds.subset_by_sites(["B", "A"])  # request order must not matter
    assert [r.patient_id for r in sub.records] == ["p1", "p2", "p3"]
    only_b = ds.subset_by_sites(["B"])
    assert only_b.site_ids == ("B",)
    assert only_b.n_patients == 1


def test_subset_unknown_site():
    ds = loads_dataset(VALID)
    with pytest.raises(DataError, match="unknown site_id"):
        ds.subset_by_sites(["A", "Q"])


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
    records = []
    pid = 0
    for j, n in enumerate(sizes):
        for _ in range(n):
            count = draw(st.integers(min_value=0, max_value=200))
            records.append(PatientRecord(f"p{pid}", f"s{j}", count))
            pid += 1
    return Dataset(records=tuple(records))


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
    # indices in the site map point back at the right records
    for site, ix in ds.sites.items():
        assert all(ds.records[i].site_id == site for i in ix)

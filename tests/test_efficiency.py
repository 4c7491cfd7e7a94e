from __future__ import annotations

import numpy as np
import pytest

from aebayes.crossval import CvCondition
from aebayes.efficiency import (
    SplitSpec,
    _round_half_up,
    efficiency_summary_rows,
    efficiency_table_rows,
    run_efficiency_experiment,
    subsample_training,
    train_test_split,
)
from aebayes.data import DataError
from aebayes.elicitation import FixtureTransport
from aebayes.evaluation import Split
from aebayes.model import META_ANALYTICAL
from aebayes_testkit import fixture_transport, llm_condition, make_dataset


@pytest.mark.parametrize(
    "x, expected",
    [(0.5, 1), (1.5, 2), (2.5, 3), (2.4, 2), (2.6, 3), (0.49, 0), (7.0, 7)],
)
def test_round_half_up(x, expected):
    assert _round_half_up(x) == expected


def test_split_seventy_thirty_per_stratum():
    # 10 sites in each stratum: expect 7 train / 3 test from each.
    ds = make_dataset([1] * 10 + [3] * 10 + [6] * 10)
    train, test = train_test_split(ds, SplitSpec(seed=0))
    assert train.n_sites == 21
    assert test.n_sites == 9
    size_of = dict(zip(ds.site_ids, ds.site_sizes()))
    small_train = [s for s in train.site_ids if size_of[s] <= 2]
    assert len(small_train) == 7


def test_split_is_deterministic_and_seed_sensitive():
    ds = make_dataset([1] * 6 + [3] * 6 + [8] * 6)
    a_train, a_test = train_test_split(ds, SplitSpec(seed=5))
    b_train, b_test = train_test_split(ds, SplitSpec(seed=5))
    assert a_train.site_ids == b_train.site_ids
    assert a_test.site_ids == b_test.site_ids
    c_train, _ = train_test_split(ds, SplitSpec(seed=6))
    assert c_train.site_ids != a_train.site_ids


def test_split_partitions_patients():
    ds = make_dataset([1, 2, 3, 3, 4, 5, 6, 7])
    train, test = train_test_split(ds, SplitSpec(seed=1))
    train_ids = set(train.patient_ids)
    test_ids = set(test.patient_ids)
    assert not train_ids & test_ids
    assert len(train_ids) + len(test_ids) == ds.n_patients


def test_split_tiny_stratum_goes_to_train_with_warning():
    # Single small site cannot be split; it should land in train.
    ds = make_dataset([1] + [3] * 4 + [8] * 4)
    with pytest.warns(UserWarning, match="assigning all to train"):
        train, test = train_test_split(ds, SplitSpec(seed=0))
    assert "site000" in train.site_ids
    assert "site000" not in test.site_ids


def test_split_without_a_two_site_stratum_is_a_data_error():
    # one site per stratum: no stratum can give a site to the test set
    with pytest.raises(DataError, match=r"test set empty: no stratum holds 2 or more"):
        train_test_split(make_dataset([1, 3, 8]), SplitSpec(seed=0))


def test_split_both_sides_nonempty_in_each_usable_stratum():
    ds = make_dataset([1, 1, 3, 3, 8, 8])
    train, test = train_test_split(ds, SplitSpec(seed=2))
    # n=2 per stratum: round_half_up(1.4)=1, clamped to [1, 1]
    assert train.n_sites == 3
    assert test.n_sites == 3


def test_subsample_full_fraction_is_identity():
    ds = make_dataset([1, 3, 8, 2, 4])
    assert subsample_training(ds, 1.0, seed=3) is ds


def test_subsample_half_of_four_site_stratum():
    ds = make_dataset([3, 3, 3, 3])
    sub = subsample_training(ds, 0.5, seed=0)
    assert sub.n_sites == 2
    assert set(sub.site_ids) <= set(ds.site_ids)


def test_subsample_keeps_at_least_one_site_per_stratum():
    ds = make_dataset([1, 1, 1, 3, 8])
    sub = subsample_training(ds, 0.2, seed=0)
    # Each represented stratum must survive even when rho*n rounds to 0.
    labels = {1: "small", 3: "medium", 8: "large"}
    kept_sizes = set(sub.site_sizes().tolist())
    assert {labels[n] for n in kept_sizes} == {"small", "medium", "large"}


def test_subsample_nested_prefixes():
    ds = make_dataset([1] * 8 + [3] * 8 + [8] * 8)
    rhos = [0.2, 0.4, 0.6, 0.8, 1.0]
    kept = [set(subsample_training(ds, r, seed=9).site_ids) for r in rhos]
    for smaller, larger in zip(kept, kept[1:]):
        assert smaller <= larger


def test_subsample_validation():
    ds = make_dataset([1, 3])
    with pytest.raises(ValueError):
        subsample_training(ds, 0.0, seed=0)
    with pytest.raises(ValueError):
        subsample_training(ds, 1.2, seed=0)


def _eff_dataset():
    return make_dataset([1, 2, 1, 2, 3, 4, 3, 4, 6, 8, 6, 8], seed=3)


def _llm_transport():
    return fixture_transport(
        ['{"alpha_rate": 0.5, "beta_rate": 0.1}'], "m1", "blind", 1.0)


def test_efficiency_checks_rho_grid_before_eliciting(monkeypatch):
    """A level out of range fails the run before the valid levels' cells
    send a query."""
    sent = []
    monkeypatch.setattr(FixtureTransport, "send", lambda self, request: sent.append(request))
    with pytest.raises(ValueError, match="rho must be in"):
        run_efficiency_experiment(_eff_dataset(), [llm_condition()],
                                  transport=_llm_transport(), rho_grid=(0.5, 0.0),
                                  n_replications=3, seed=0)
    assert sent == []


def test_efficiency_shapes_and_test_set_identity():
    cond = llm_condition()
    result = run_efficiency_experiment(
        _eff_dataset(), [cond],
        transport=_llm_transport(), rho_grid=(0.5, 1.0), n_replications=3,
        seed=0)
    assert [c.rho for c in result.cells] == [0.5, 1.0]
    for cell in result.cells:
        assert len(cell.runs) == 3
        for run in cell.runs:
            assert run.n_test_patients == result.n_test_patients
            assert run.spec.alpha_rate == 0.5
            assert run.spec.beta_rate == 0.1


def test_efficiency_full_rho_uses_entire_training_set():
    cond = CvCondition.meta_analytical()
    result = run_efficiency_experiment(
        _eff_dataset(), [cond], transport=None,
        rho_grid=(1.0,), n_replications=20, seed=0)
    runs = result.cells[0].runs
    # rho=1 is the full training set, so every replication sees the same data
    # and, its score being exact, gets the same score to the bit
    assert len({r.n_train_patients for r in runs}) == 1
    assert runs[0].n_train_patients + result.n_test_patients == _eff_dataset().n_patients
    assert len({r.lpd.per_patient for r in runs}) == 1
    assert result.cells[0].lpd_sd == 0.0


def test_efficiency_scores_the_repeated_baseline_cell_once():
    """At rho = 1 the baseline's 20 replications share one training set and
    one prior, so one quadrature scores them all, to the bits of a fresh
    one."""
    result = run_efficiency_experiment(
        _eff_dataset(), [CvCondition.meta_analytical()], transport=None,
        rho_grid=(1.0,), n_replications=20, seed=0)
    runs = result.cells[0].runs
    assert all(run.lpd is runs[0].lpd for run in runs)
    train, test = train_test_split(_eff_dataset(), SplitSpec(seed=0))
    fresh = Split(train, test).quadrature(META_ANALYTICAL).lpd
    assert [run.lpd for run in runs] == [fresh] * 20


def test_efficiency_cells_send_their_conditions_batch():
    cond = llm_condition(n_queries=2)
    result = run_efficiency_experiment(
        _eff_dataset(), [cond],
        transport=_llm_transport(), rho_grid=(0.5, 1.0), n_replications=4,
        seed=0)
    for cell in result.cells:
        for run in cell.runs:
            assert run.prior is not None
            assert len(run.prior.records) == 2


def test_efficiency_baseline_runs_at_full_data_only():
    meta = CvCondition.meta_analytical()
    llm = llm_condition()
    result = run_efficiency_experiment(
        _eff_dataset(), [meta, llm],
        transport=_llm_transport(), rho_grid=(0.4, 0.8), n_replications=2,
        seed=0)
    by_cond = {}
    for cell in result.cells:
        by_cond.setdefault(cell.condition.identity(), []).append(cell.rho)
    assert by_cond == {"meta_analytical": [1.0], "m1|blind|T=1": [0.4, 0.8]}



def test_efficiency_replications_share_subsamples_across_conditions():
    blind, informed = llm_condition(), llm_condition(strategy="disease_informed")
    transport = _llm_transport()
    transport.add_record({"model": "m1", "strategy": "disease_informed",
                          "temperature": 1.0,
                          "response": '{"alpha_rate": 0.2, "beta_rate": 0.3}'})
    result = run_efficiency_experiment(
        _eff_dataset(), [blind, informed],
        transport=transport, rho_grid=(0.5,), n_replications=3, seed=2)
    sizes = {}
    for cell in result.cells:
        sizes[cell.condition.identity()] = [r.n_train_patients for r in cell.runs]
    # Same replication index -> same subsampled training set for every condition.
    assert sizes["m1|blind|T=1"] == sizes["m1|disease_informed|T=1"]
    assert len(set(sizes["m1|blind|T=1"])) > 1  # the replications differ


def test_efficiency_export_rows():
    result = run_efficiency_experiment(
        _eff_dataset(), [llm_condition()], transport=_llm_transport(),
        rho_grid=(0.5, 1.0), n_replications=2, seed=0)
    rows = efficiency_table_rows(result)
    assert len(rows) == 4  # 2 rho values x 2 replications
    assert {r["condition"] for r in rows} == {"m1|blind|T=1"}
    summary = efficiency_summary_rows(result)
    assert len(summary) == 2
    assert all(r["n_replications"] == 2 for r in summary)
    means = [float(r["lpd_mean"]) for r in summary]
    assert all(np.isfinite(m) for m in means)

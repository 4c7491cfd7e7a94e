from __future__ import annotations

import numpy as np
import pytest

from aebayes.crossval import (
    CvCondition,
    cv_summary_rows,
    cv_table_rows,
    make_folds,
    run_cv_experiment,
    shuffled_strata,
    stratify_sites,
)
from aebayes.efficiency import SplitSpec, subsample_training, train_test_split
from aebayes.elicitation import ElicitationConfig, PromptStrategy
from aebayes.model import META_ANALYTICAL
from aebayes_testkit import fixture_transport, llm_condition, make_dataset


def test_stratify_thresholds():
    ds = make_dataset([1, 2, 3, 4, 5, 27])
    assert stratify_sites(ds) == {"small": ("site000", "site001"),
                                  "medium": ("site002", "site003"),
                                  "large": ("site004", "site005")}


def test_stratify_all_small():
    strata = stratify_sites(make_dataset([1, 1, 1]))
    assert list(strata) == ["small", "medium", "large"]
    assert [len(ids) for ids in strata.values()] == [3, 0, 0]


def test_stratify_partitions_sites():
    ds = make_dataset([1, 2, 2, 3, 4, 5, 6, 1, 3, 9])
    all_ids = [s for ids in stratify_sites(ds).values() for s in ids]
    assert sorted(all_ids) == sorted(ds.site_ids)
    assert len(all_ids) == len(set(all_ids))


def test_shuffled_strata_gives_each_stratum_one_seeded_order():
    """Each nonempty stratum comes once, its sites in an order fixed by
    (seed, purpose, label) alone, and the folds, the split and the
    subsamples each cut their own purpose's order."""
    ds = make_dataset([1] * 4 + [3] * 6)  # no large site
    strata = stratify_sites(ds)
    shuffled = list(shuffled_strata(strata, seed=2, purpose="cv_folds"))
    assert [label for label, _ in shuffled] == ["small", "medium"]
    for label, sites in shuffled:
        assert sorted(sites) == sorted(strata[label])
        alone = {label: strata[label]}
        assert list(shuffled_strata(alone, 2, "cv_folds")) == [(label, sites)]
    assert dict(shuffled) != dict(shuffled_strata(strata, 2, "split"))

    folds = make_folds(strata, k=3, seed=2)
    for _, sites in shuffled:
        assert [folds.fold_of_site[s] for s in sites] == [i % 3 for i in range(len(sites))]
    train, _ = train_test_split(ds, SplitSpec(seed=2))
    split = dict(shuffled_strata(strata, 2, "split"))
    assert set(train.site_ids) == {*split["small"][:3], *split["medium"][:4]}
    half = subsample_training(ds, 0.5, seed=2)
    subsample = dict(shuffled_strata(strata, 2, "subsample"))
    assert set(half.site_ids) == {*subsample["small"][:2], *subsample["medium"][:3]}


def test_make_folds_even_division():
    ds = make_dataset([3] * 10)
    folds = make_folds(stratify_sites(ds), k=5, seed=1)
    sizes = [len(folds.test_sites(f)) for f in range(5)]
    assert sizes == [2] * 5


def test_make_folds_remainder():
    ds = make_dataset([3] * 11)
    folds = make_folds(stratify_sites(ds), k=5, seed=1)
    sizes = sorted((len(folds.test_sites(f)) for f in range(5)), reverse=True)
    assert sizes == [3, 2, 2, 2, 2]


def test_make_folds_balanced_within_each_stratum(mixed_dataset):
    strata = stratify_sites(mixed_dataset)
    folds = make_folds(strata, k=5, seed=3)
    for ids in strata.values():
        per_fold = [sum(1 for s in ids if folds.fold_of_site[s] == f) for f in range(5)]
        assert max(per_fold) - min(per_fold) <= 1


def test_make_folds_partition_and_determinism(mixed_dataset):
    strata = stratify_sites(mixed_dataset)
    a = make_folds(strata, k=5, seed=7)
    b = make_folds(strata, k=5, seed=7)
    assert a.fold_of_site == b.fold_of_site
    c = make_folds(strata, k=5, seed=8)
    assert c.fold_of_site != a.fold_of_site
    assert sorted(a.fold_of_site) == sorted(mixed_dataset.site_ids)
    assert set(a.fold_of_site.values()) == set(range(5))


def test_make_folds_validation():
    ds = make_dataset([3, 3])
    with pytest.raises(ValueError, match="exceeds total site count"):
        make_folds(stratify_sites(ds), k=5, seed=0)
    with pytest.raises(ValueError):
        make_folds(stratify_sites(ds), k=1, seed=0)
    # one site per stratum: every stratum deals into fold 0 only
    with pytest.raises(ValueError, match=r"fold\(s\) 1, 2 without sites"):
        make_folds(stratify_sites(make_dataset([1, 3, 5])), k=3, seed=0)


def test_condition_identity_and_validation():
    meta = CvCondition.meta_analytical()
    assert not meta.is_llm
    assert meta.identity() == "meta_analytical"
    llm = CvCondition(strategy=PromptStrategy.BLIND,
                      elicit=ElicitationConfig(model_id="m1", temperature=0.5))
    assert llm.is_llm
    assert llm.identity() == "m1|blind|T=0.5"
    with pytest.raises(ValueError, match="both strategy and elicit"):
        CvCondition(strategy=PromptStrategy.BLIND)
    with pytest.raises(ValueError, match="both strategy and elicit"):
        CvCondition(elicit=ElicitationConfig(model_id="m1"))


def _llm_transport(model="m1", temperature=1.0, strategy="blind",
                   bodies=('{"alpha_rate": 0.5, "beta_rate": 0.1}',)):
    return fixture_transport(list(bodies), model, strategy, temperature)


def test_cv_meta_condition_needs_no_transport(mixed_dataset):
    results = run_cv_experiment(
        mixed_dataset, [CvCondition.meta_analytical()],
        transport=None, k=5, seed=0)
    assert len(results) == 1
    res = results[0]
    assert len(res.per_fold) == 5
    for fold in res.per_fold:
        assert fold.spec == META_ANALYTICAL
        assert fold.prior is None


def test_cv_patients_partition_across_test_folds(mixed_dataset):
    results = run_cv_experiment(
        mixed_dataset, [CvCondition.meta_analytical()],
        transport=None, k=5, seed=0)
    n_test = sum(f.lpd.n_patients for f in results[0].per_fold)
    assert n_test == mixed_dataset.n_patients


def test_cv_llm_condition_queries_k_times_5(mixed_dataset):
    cond = llm_condition()
    results = run_cv_experiment(
        mixed_dataset, [cond],
        transport=_llm_transport(), k=5, seed=0)
    records = [r for f in results[0].per_fold for r in f.prior.records]
    assert len(records) == 25  # k folds x 5 queries
    assert all(f.spec.alpha_rate == 0.5 for f in results[0].per_fold)


def test_cv_condition_order_does_not_matter(mixed_dataset):
    meta = CvCondition.meta_analytical()
    llm = llm_condition()

    def run(conditions):
        return run_cv_experiment(mixed_dataset, conditions,
                                 transport=_llm_transport(),
                                 k=5, seed=4)

    fwd = {r.condition.identity(): r.pooled_mean_lpd for r in run([meta, llm])}
    rev = {r.condition.identity(): r.pooled_mean_lpd for r in run([llm, meta])}
    assert fwd == rev


def test_cv_summaries_pool_per_patient(mixed_dataset):
    results = run_cv_experiment(
        mixed_dataset, [CvCondition.meta_analytical()],
        transport=None, k=5, seed=0)
    res = results[0]
    pooled = np.concatenate([f.lpd.per_patient for f in res.per_fold])
    assert res.pooled_mean_lpd == pytest.approx(pooled.mean())
    assert res.pooled_sd_lpd == pytest.approx(pooled.std(ddof=1))
    fold_means = [f.mean_lpd for f in res.per_fold]
    assert res.fold_mean_lpd == pytest.approx(np.mean(fold_means))


def test_cv_export_rows(mixed_dataset):
    cond = llm_condition()
    results = run_cv_experiment(
        mixed_dataset, [CvCondition.meta_analytical(), cond],
        transport=_llm_transport(), k=3, seed=0)
    rows = cv_table_rows(results)
    assert len(rows) == 6  # 2 conditions x 3 folds
    assert rows[0]["model"] == "meta_analytical"
    assert rows[3]["model"] == "m1"
    assert rows[3]["prompt_type"] == "blind"
    summary = cv_summary_rows(results)
    assert [r["condition"] for r in summary] == ["meta_analytical", "m1|blind|T=1"]

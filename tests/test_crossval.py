from __future__ import annotations

import numpy as np
import pytest

from aebayes import sampler
from aebayes.crossval import (
    CvCondition,
    StratumLabel,
    cv_summary_rows,
    cv_table_rows,
    make_folds,
    run_cv_experiment,
    stratify_sites,
)
from aebayes.elicitation import ElicitationConfig, PromptStrategy
from aebayes.model import META_ANALYTICAL
from aebayes.sampler import McmcConfig
from aebayes_testkit import fixture_transport, llm_condition, make_dataset

TINY_MCMC = McmcConfig(n_chains=2, n_warmup=60, n_draws=60, seed=0)


def strata_by_label(dataset):
    return {s.label: s for s in stratify_sites(dataset)}


def test_stratify_thresholds():
    ds = make_dataset([1, 2, 3, 4, 5, 27])
    by = strata_by_label(ds)
    assert by[StratumLabel.SMALL].site_ids == ("site000", "site001")
    assert by[StratumLabel.MEDIUM].site_ids == ("site002", "site003")
    assert by[StratumLabel.LARGE].site_ids == ("site004", "site005")


def test_stratify_all_small():
    ds = make_dataset([1, 1, 1])
    by = strata_by_label(ds)
    assert by[StratumLabel.SMALL].n_sites == 3
    assert by[StratumLabel.MEDIUM].n_sites == 0
    assert by[StratumLabel.LARGE].n_sites == 0


def test_stratify_partitions_sites():
    ds = make_dataset([1, 2, 2, 3, 4, 5, 6, 1, 3, 9])
    all_ids = [s for stratum in stratify_sites(ds) for s in stratum.site_ids]
    assert sorted(all_ids) == sorted(ds.site_ids)
    assert len(all_ids) == len(set(all_ids))


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
    for stratum in strata:
        per_fold = [sum(1 for s in stratum.site_ids
                        if folds.fold_of_site[s] == f) for f in range(5)]
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
        mixed_dataset, [CvCondition.meta_analytical()], TINY_MCMC,
        transport=None, k=5, seed=0)
    assert len(results) == 1
    res = results[0]
    assert len(res.per_fold) == 5
    for fold in res.per_fold:
        assert fold.spec == META_ANALYTICAL
        assert fold.prior is None


def test_cv_patients_partition_across_test_folds(mixed_dataset):
    results = run_cv_experiment(
        mixed_dataset, [CvCondition.meta_analytical()], TINY_MCMC,
        transport=None, k=5, seed=0)
    n_test = sum(f.lpd.n_patients for f in results[0].per_fold)
    assert n_test == mixed_dataset.n_patients


def test_cv_llm_condition_queries_k_times_5(mixed_dataset):
    cond = llm_condition()
    results = run_cv_experiment(
        mixed_dataset, [cond], TINY_MCMC,
        transport=_llm_transport(), k=5, seed=0)
    records = [r for f in results[0].per_fold for r in f.prior.records]
    assert len(records) == 25  # k folds x 5 queries
    assert all(f.spec.alpha_rate == 0.5 for f in results[0].per_fold)


def test_cv_condition_order_does_not_matter(mixed_dataset):
    meta = CvCondition.meta_analytical()
    llm = llm_condition()

    def run(conditions):
        return run_cv_experiment(mixed_dataset, conditions, TINY_MCMC,
                                 transport=_llm_transport(),
                                 k=5, seed=4)

    fwd = {r.condition.identity(): r.pooled_mean_lpd for r in run([meta, llm])}
    rev = {r.condition.identity(): r.pooled_mean_lpd for r in run([llm, meta])}
    assert fwd == rev


def test_cv_deterministic_across_slabs(mixed_dataset, monkeypatch):
    """The cells run as one batch of chains, fitted in slabs; how the batch
    splits into slabs must not change a result."""
    cond = [CvCondition.meta_analytical(),
            llm_condition()]

    def run(slab_bytes):
        monkeypatch.setattr(sampler, "_SLAB_BYTES", slab_bytes)
        res = run_cv_experiment(mixed_dataset, cond, TINY_MCMC,
                                transport=_llm_transport(), k=3, seed=2)
        return [(r.pooled_mean_lpd, r.pooled_sd_lpd) for r in res]

    assert run(sampler._SLAB_BYTES) == run(1)


def test_cv_summaries_pool_per_patient(mixed_dataset):
    results = run_cv_experiment(
        mixed_dataset, [CvCondition.meta_analytical()], TINY_MCMC,
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
        mixed_dataset, [CvCondition.meta_analytical(), cond], TINY_MCMC,
        transport=_llm_transport(), k=3, seed=0)
    rows = cv_table_rows(results)
    assert len(rows) == 6  # 2 conditions x 3 folds
    assert rows[0]["model"] == "meta_analytical"
    assert rows[3]["model"] == "m1"
    assert rows[3]["prompt_type"] == "blind"
    summary = cv_summary_rows(results)
    assert [r["condition"] for r in summary] == ["meta_analytical", "m1|blind|T=1"]

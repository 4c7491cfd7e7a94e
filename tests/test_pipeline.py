from __future__ import annotations

import concurrent.futures
import json

import pytest

from aebayes import pipeline, seeding
from aebayes.crossval import CvCondition, make_folds, run_cv_experiment, stratify_sites
from aebayes.efficiency import (
    SplitSpec,
    run_efficiency_experiment,
    subsample_training,
    train_test_split,
)
from aebayes.elicitation import ElicitationConfig, PromptStrategy
from aebayes.sampler import McmcConfig
from aebayes_testkit import fixture_transport, make_dataset

TINY_MCMC = McmcConfig(n_chains=2, n_warmup=30, n_draws=30, seed=0)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor; runs cells in-process."""

    def __init__(self, seen: list[int], max_workers: int):
        seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("n_jobs, n_cells, cpus, workers", [
    (8, 3, 4, 3),     # no more workers than cells
    (8, 10, 4, 4),    # no more workers than CPUs
    (2, 10, 4, 2),
    (2, 10, 2, 2),
    (8, 10, 1, None),  # one CPU: sequential, no pool
    (4, 1, 4, None),   # one cell: sequential, no pool
    (1, 10, 4, None),
])
def test_map_cells_clamps_workers(monkeypatch, n_jobs, n_cells, cpus, workers):
    seen: list[int] = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(seen, max_workers))
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(pipeline, "_score_cell", lambda cell: cell * 10)
    assert pipeline.map_cells(list(range(n_cells)), n_jobs=n_jobs) == \
        [10 * c for c in range(n_cells)]
    assert seen == ([] if workers is None else [workers])


def _answer(i: int) -> str:
    return json.dumps({"alpha_rate": 0.1 * (i + 1), "beta_rate": 0.01 * (i + 1)})


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_cv_folds_hold_their_own_cells(mixed_dataset, n_jobs):
    k, n_queries = 3, 5
    answers = [_answer(i) for i in range(k * n_queries)]
    cond = CvCondition.llm("m1", PromptStrategy.BLIND, 1.0)
    [res] = run_cv_experiment(
        mixed_dataset, [cond], TINY_MCMC,
        ElicitationConfig(model_id="m1", n_queries=n_queries, backoff_base=0.001),
        transport=fixture_transport(answers, "m1", "blind", 1.0), k=k, seed=3,
        n_jobs=n_jobs)
    folds = make_folds(stratify_sites(mixed_dataset), k=k, seed=3)
    for fold, outcome in enumerate(res.per_fold):
        batch = answers[fold * n_queries:(fold + 1) * n_queries]
        assert [r.response for r in outcome.prior.records] == batch
        assert outcome.spec == outcome.prior.spec
        test_ids = folds.test_sites(fold)
        assert outcome.n_test_patients == \
            mixed_dataset.subset_by_sites(test_ids).n_patients
        assert outcome.n_train_patients == \
            mixed_dataset.n_patients - outcome.n_test_patients


def test_efficiency_runs_hold_their_own_cells():
    dataset = make_dataset([1, 2, 1, 2, 1, 3, 4, 3, 4, 3, 6, 8, 6, 8, 7], seed=3)
    rho_grid, n_reps, seed = (0.4, 1.0), 3, 4
    answers = [_answer(i) for i in range(len(rho_grid) * n_reps)]
    cond = CvCondition.llm("m1", PromptStrategy.BLIND, 1.0)
    result = run_efficiency_experiment(
        dataset, [cond], TINY_MCMC,
        ElicitationConfig(model_id="m1", backoff_base=0.001),
        transport=fixture_transport(answers, "m1", "blind", 1.0),
        rho_grid=rho_grid, n_replications=n_reps, seed=seed)
    train, _ = train_test_split(dataset, SplitSpec(seed=seed))
    served = iter(answers)  # requests go condition -> rho -> replication
    for cell in result.cells:
        for rep, run in enumerate(cell.runs, start=1):
            assert [r.response for r in run.prior.records] == [next(served)]
            sub = subsample_training(
                train, cell.rho, seeding.derive_seed(seed, "eff_subsample", rep))
            assert run.n_train_patients == sub.n_patients
    sizes = [run.n_train_patients for run in result.cells[0].runs]
    assert len(set(sizes)) > 1  # the replications differ, so the check has teeth

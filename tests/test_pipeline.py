from __future__ import annotations

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
from aebayes.elicitation import AllQueriesFailedError, FixtureTransport
from aebayes.evaluation import HeldOut, Split
from aebayes.model import META_ANALYTICAL
from aebayes_testkit import fixture_transport, llm_condition, make_dataset, transport_from


def _answer(i: int) -> str:
    return json.dumps({"alpha_rate": 0.1 * (i + 1), "beta_rate": 0.01 * (i + 1)})


@pytest.mark.parametrize("n_queries", [1, 2])
def test_cv_folds_hold_their_own_cells(mixed_dataset, n_queries):
    k = 3
    answers = [_answer(i) for i in range(k * n_queries)]
    [res] = run_cv_experiment(
        mixed_dataset, [llm_condition(n_queries=n_queries)],
        transport=fixture_transport(answers, "m1", "blind", 1.0), k=k, seed=3)
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
    result = run_efficiency_experiment(
        dataset, [llm_condition(n_queries=1)],
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


def test_baseline_runs_without_elicitation_settings(mixed_dataset):
    """The baseline needs no ``ElicitationConfig`` and no transport."""
    baseline = [CvCondition.meta_analytical()]
    cv = run_cv_experiment(mixed_dataset, baseline, transport=None, k=3)
    eff = run_efficiency_experiment(mixed_dataset, baseline, transport=None,
                                    n_replications=2)
    outcomes = [o for res in cv for o in res.per_fold] + \
        [o for cell in eff.cells for o in cell.runs]
    assert len(outcomes) == 3 + 2
    assert all(o.prior is None and o.spec == META_ANALYTICAL for o in outcomes)


def test_run_cells_elicits_then_scores_each_cell_in_plan_order(mixed_dataset):
    """One outcome per (condition, split) pair, in plan order; each LLM
    cell takes the next batch, and ``audit`` gets every record in the order
    sent."""
    train, test = train_test_split(mixed_dataset, SplitSpec(seed=2))
    small = subsample_training(train, 0.5, seed=1)
    held_out = HeldOut(test)
    shared = Split(small, held_out)
    llm = llm_condition(n_queries=2)
    answers = [_answer(i) for i in range(4)]
    audit = []
    outcomes = pipeline.run_cells(
        [(llm, Split(train, held_out)), (CvCondition.meta_analytical(), shared),
         (llm, shared)],
        fixture_transport(answers, "m1", "blind", 1.0), audit)
    first, baseline, last = outcomes
    assert [r.response for r in first.prior.records] == answers[:2]
    assert [r.response for r in last.prior.records] == answers[2:]
    assert audit == [*first.prior.records, *last.prior.records]
    assert baseline.prior is None and baseline.spec == META_ANALYTICAL
    for outcome, cell_train in zip(outcomes, (train, small, small)):
        assert outcome.lpd == Split(cell_train, HeldOut(test)).lpd(outcome.spec)
        assert outcome.n_train_patients == cell_train.n_patients


def test_run_cells_stops_at_a_failed_batch(mixed_dataset, monkeypatch):
    """A batch whose every query fails ends the run at its cell: the cells
    after it send nothing, and ``audit`` keeps every record sent."""
    served = []
    send = FixtureTransport.send
    monkeypatch.setattr(FixtureTransport, "send",
                        lambda self, request: served.append(request) or send(self, request))
    transport = transport_from(
        {"model": "m1", "strategy": "blind", "temperature": t, "response": body}
        for t, body in ((0.5, _answer(0)), (1.0, "not json")))
    train, test = train_test_split(mixed_dataset, SplitSpec(seed=2))
    plan = [(llm_condition(temperature=t, n_queries=2), Split(train, HeldOut(test)))
            for t in (0.5, 1.0, 0.5)]
    audit = []
    with pytest.raises(AllQueriesFailedError, match="all 2 queries failed"):
        pipeline.run_cells(plan, transport, audit)
    assert [r.ok for r in audit] == [True, True, False, False]
    assert len(served) == 4

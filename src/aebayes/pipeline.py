"""One way to plan and run the cells of both experiments.

A ``Cell`` is one fit-then-score unit: a condition, training data and
held-out data.  Each experiment plans its cells in
groups (one group per CV condition, or per efficiency (condition, rho)
pair) and hands them to ``run_cells``, which returns one ``CellOutcome``
per cell in the same groups, each built from its own cell.

A ``CvCondition`` (defined in ``elicitation``) names the prior source: the
meta-analytical baseline, or a prompt strategy with its own
``ElicitationConfig``, which every cell of that condition sends as given.
``run_cells`` first resolves every cell's prior, sequentially and in plan
order, so the transport sees a deterministic request stream.  It then
scores each cell by ``evaluation.quadrature_lpd``: the exact posterior
predictive LPD of the held-out patients, computed on a checked grid over
(log alpha, log beta), with no chains, seeds or R-hat.  So each outcome is
a pure function of its own cell's data and spec.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import Dataset
from .elicitation import AggregatedPrior, AllQueriesFailedError, CvCondition, elicit_prior
from .evaluation import LpdResult, quadrature_lpd
from .model import META_ANALYTICAL, HyperPriorSpec


@dataclass(frozen=True)
class Cell:
    """Fit on ``train`` under the condition's prior, then score the ``test``
    patients."""

    condition: CvCondition
    train: Dataset
    test: Dataset


@dataclass(frozen=True)
class CellOutcome:
    """What one cell produced, with the prior it was fitted under."""

    spec: HyperPriorSpec
    prior: AggregatedPrior | None
    lpd: LpdResult
    n_train_patients: int

    @property
    def mean_lpd(self) -> float:
        return self.lpd.mean_lpd

    @property
    def n_test_patients(self) -> int:
        return self.lpd.n_patients


def run_cells(groups: list[list[Cell]], transport) -> list[tuple[CellOutcome, ...]]:
    """Resolve every cell's prior in plan order (the baseline's needs no
    transport; an LLM condition elicits a fresh prior with its own
    settings), then score each cell; the outcomes come back in the same
    groups.

    When every query of a batch fails, the ``AllQueriesFailedError`` carries
    the records of every batch sent before it, then its own, so the audit
    log keeps all of them.
    """
    cells = [cell for group in groups for cell in group]
    priors = []
    try:
        for cond in (cell.condition for cell in cells):
            priors.append(elicit_prior(cond.strategy, cond.elicit, transport)
                          if cond.is_llm else None)
    except AllQueriesFailedError as exc:
        exc.records = (*(rec for prior in priors if prior for rec in prior.records),
                       *exc.records)
        raise
    specs = [prior.spec if prior else META_ANALYTICAL for prior in priors]
    outcomes = iter(CellOutcome(spec=spec, prior=prior,
                                lpd=quadrature_lpd(cell.train, spec, cell.test),
                                n_train_patients=cell.train.n_patients)
                    for cell, prior, spec in zip(cells, priors, specs))
    return [tuple(next(outcomes) for _ in group) for group in groups]

"""One way to plan and run the cells of both experiments.

A ``Cell`` is one fit-then-score unit: a condition, training data,
held-out data and an MCMC config.  Each experiment plans its cells in
groups (one group per CV condition, or per efficiency (condition, rho)
pair) and hands them to ``run_cells``, which returns one ``CellOutcome``
per cell in the same groups, each built from its own cell.

A ``CvCondition`` (defined in ``elicitation``) names the prior source: the
meta-analytical baseline, or a prompt strategy with its own
``ElicitationConfig``, which every cell of that condition sends as given.
``run_cells`` first resolves every cell's prior, sequentially and in plan
order, so the transport sees a deterministic request stream.  It then fits
every cell of the experiment as one batch of chains (``sampler.fit_batch``)
and scores each cell's draws.  A cell's fit is a pure function of its data,
spec and config (its seed fixes the chains, whatever else shares the batch)
and scoring draws no random numbers, so each outcome depends on its own
cell alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import Dataset
from .elicitation import AggregatedPrior, AllQueriesFailedError, CvCondition, elicit_prior
from .evaluation import LpdResult, lpd_dataset
from .model import META_ANALYTICAL, HyperPriorSpec
from .sampler import McmcConfig, fit_batch


@dataclass(frozen=True)
class Cell:
    """Fit on ``train`` under the condition's prior, then score the ``test``
    patients."""

    condition: CvCondition
    train: Dataset
    test: Dataset
    mcmc: McmcConfig


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


def _resolve_prior(condition: CvCondition,
                   transport) -> tuple[HyperPriorSpec, AggregatedPrior | None]:
    """The condition's spec and the prior it came from (None for the
    baseline, which needs no transport); an LLM condition elicits a fresh
    prior with its own settings."""
    if not condition.is_llm:
        return META_ANALYTICAL, None
    prior = elicit_prior(condition.strategy, condition.elicit, transport)
    return prior.spec, prior


def run_cells(groups: list[list[Cell]], transport) -> list[tuple[CellOutcome, ...]]:
    """Resolve every cell's prior in plan order, fit every cell in one batch,
    then score each; the outcomes come back in the same groups.

    When every query of a batch fails, the ``AllQueriesFailedError`` carries
    the records of every batch sent before it, then its own, so the audit
    log keeps all of them.
    """
    cells = [cell for group in groups for cell in group]
    priors = []
    try:
        for cell in cells:
            priors.append(_resolve_prior(cell.condition, transport))
    except AllQueriesFailedError as exc:
        exc.records = (*(rec for _, prior in priors if prior for rec in prior.records),
                       *exc.records)
        raise
    fitted = iter(zip(priors, fit_batch([(cell.train, spec, cell.mcmc)
                                         for cell, (spec, _) in zip(cells, priors)])))
    return [tuple(CellOutcome(spec=spec, prior=prior, lpd=lpd_dataset(cell.test, draws),
                              n_train_patients=cell.train.n_patients)
                  for cell, ((spec, prior), draws) in zip(group, fitted))
            for group in groups]

"""One way to plan and run the cells of both experiments.

A ``Cell`` is one fit-then-score unit: training data, held-out data, the
hyperprior spec with the elicited prior it came from, and an MCMC config.
Each experiment plans its cells in groups (one group per CV condition, or
per efficiency (condition, rho) pair) and hands them to ``run_cells``,
which returns one ``CellOutcome`` per cell in the same groups, each built
from its own cell.

A ``CvCondition`` names the prior source: the meta-analytical baseline, or
a prompt strategy with its own ``ElicitationConfig``, which every cell of
that condition sends as given.  Priors are resolved while planning,
sequentially and in plan order, so the transport sees a deterministic
request stream.  ``run_cells`` then fits every cell of the experiment as
one batch of chains (``sampler.fit_batch``) and scores each cell's draws.
A cell's fit is a pure function of its data, spec and config (its seed
fixes the chains, whatever else shares the batch) and scoring draws no
random numbers, so each outcome depends on its own cell alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import Dataset
from .elicitation import AggregatedPrior, ElicitationConfig, PromptStrategy, elicit_prior
from .evaluation import LpdResult, lpd_dataset
from .model import META_ANALYTICAL, HyperPriorSpec
from .sampler import McmcConfig, fit_batch


@dataclass(frozen=True)
class CvCondition:
    """A prior source: the fixed meta-analytical baseline (neither field
    set) or one LLM elicitation, a prompt strategy with the settings of its
    query batch (model, temperature, queries, retries)."""

    strategy: PromptStrategy | None = None
    elicit: ElicitationConfig | None = None

    def __post_init__(self):
        if (self.strategy is None) != (self.elicit is None):
            raise ValueError("set both strategy and elicit or neither")

    @classmethod
    def meta_analytical(cls) -> "CvCondition":
        return cls()

    @property
    def is_llm(self) -> bool:
        return self.elicit is not None

    def identity(self) -> str:
        """Stable name used for seed derivation and reporting; independent
        of the condition's position in the run."""
        if not self.is_llm:
            return "meta_analytical"
        return f"{self.elicit.model_id}|{self.strategy.value}|T={self.elicit.temperature:g}"


@dataclass(frozen=True)
class Cell:
    """Fit on ``train`` under ``spec``, then score the ``test`` patients."""

    train: Dataset
    test: Dataset
    spec: HyperPriorSpec
    prior: AggregatedPrior | None  # None for the meta-analytical baseline
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


def plan_cell(condition: CvCondition, transport, *, train: Dataset, test: Dataset,
              mcmc: McmcConfig) -> Cell:
    """A cell under the condition's prior, eliciting a fresh one for an LLM
    condition with its own settings (the baseline needs no transport)."""
    if not condition.is_llm:
        spec, prior = META_ANALYTICAL, None
    else:
        prior = elicit_prior(condition.strategy, condition.elicit, transport)
        spec = prior.spec
    return Cell(train=train, test=test, spec=spec, prior=prior, mcmc=mcmc)


def run_cells(groups: list[list[Cell]]) -> list[tuple[CellOutcome, ...]]:
    """Fit every cell in one batch, then score each; the outcomes come back
    in the same groups."""
    cells = [cell for group in groups for cell in group]
    fits = iter(fit_batch([(cell.train, cell.spec, cell.mcmc) for cell in cells]))
    return [tuple(CellOutcome(spec=cell.spec, prior=cell.prior,
                              lpd=lpd_dataset(cell.test, draws),
                              n_train_patients=cell.train.n_patients)
                  for cell, draws in zip(group, fits))
            for group in groups]

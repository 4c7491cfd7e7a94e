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
request stream.  The fits are pure functions of their cell's data, spec
and config (its seed fixes the chains; scoring draws no random numbers),
so they can run sequentially or in a process pool without changing
results; workers receive only those, not the prior's audit records.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .data import Dataset
from .elicitation import AggregatedPrior, ElicitationConfig, PromptStrategy, elicit_prior
from .evaluation import LpdResult, lpd_dataset
from .model import META_ANALYTICAL, HyperPriorSpec
from .sampler import McmcConfig, fit_hyperparams


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
    rhat_flags: dict[str, float]
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


def _score_cell(args: tuple) -> tuple[LpdResult, dict[str, float]]:
    # module-level so it pickles for process pools
    train, test, spec, mcmc = args
    draws = fit_hyperparams(train, spec, mcmc)
    return lpd_dataset(test, draws), draws.rhat_flags()


def map_cells(args_list: list[tuple], n_jobs: int = 1) -> list:
    """Run ``_score_cell`` over many argument tuples, optionally in parallel.

    Results are ordered by input index regardless of scheduling, so the
    parallelism level never changes the output.  No more workers start
    than there are cells or CPUs.
    """
    workers = min(n_jobs, len(args_list), os.cpu_count() or 1)
    if workers <= 1:
        return [_score_cell(a) for a in args_list]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_score_cell, args_list))


def run_cells(groups: list[list[Cell]], n_jobs: int = 1) -> list[tuple[CellOutcome, ...]]:
    """Fit and score every cell; the outcomes come back in the same groups."""
    cells = [cell for group in groups for cell in group]
    fits = iter(map_cells([(c.train, c.test, c.spec, c.mcmc) for c in cells], n_jobs=n_jobs))
    return [tuple(CellOutcome(spec=cell.spec, prior=cell.prior, lpd=lpd,
                              rhat_flags=rhat_flags,
                              n_train_patients=cell.train.n_patients)
                  for cell, (lpd, rhat_flags) in zip(group, fits))
            for group in groups]

"""Shared fit-then-score step used by both experiments.

A cell = (training data, test data, hyperprior spec, MCMC config, LPD
seed).  Cells are pure functions of their arguments, so they can be run
sequentially or farmed out to a process pool without changing results;
outputs are returned in input order either way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .data import Dataset
from .evaluation import LpdResult, lpd_dataset
from .model import HyperPriorSpec
from .sampler import McmcConfig, run_mcmc


@dataclass(frozen=True)
class FitScore:
    """Outcome of fitting on train and scoring held-out patients."""

    spec: HyperPriorSpec
    lpd: LpdResult
    rhat_flags: dict[str, float]

    @property
    def mean_lpd(self) -> float:
        return self.lpd.mean_lpd


def fit_and_score(train: Dataset, test: Dataset, spec: HyperPriorSpec,
                  mcmc: McmcConfig, lpd_seed: int) -> FitScore:
    draws = run_mcmc(train, spec, mcmc)
    lpd = lpd_dataset(test, draws, seed=lpd_seed)
    return FitScore(spec=spec, lpd=lpd, rhat_flags=draws.rhat_flags())


def _score_cell(args: tuple) -> FitScore:
    # module-level so it pickles for process pools
    return fit_and_score(*args)


def map_cells(args_list: list[tuple], n_jobs: int = 1) -> list[FitScore]:
    """Run fit_and_score over many cells, optionally in parallel.

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

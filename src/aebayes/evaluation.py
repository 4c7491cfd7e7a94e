"""Log predictive density evaluation for held-out patients.

A test patient's count is scored against the posterior predictive of a
*new* site.  Given (alpha, beta), a new site's rate is Gamma(alpha, beta)
and a Poisson count mixed over it is negative binomial,
NB(y; alpha, beta / (1 + beta)) (BDA3 section 2.7).  ``lpd_dataset``
averages that closed form over the pooled posterior draws,

    log (1/S) sum_s NB(y; alpha_s, beta_s / (1 + beta_s)),

the Rao-Blackwellised estimate: exact given the draws, with no lambda_new
draws and so no random numbers.  It is evaluated once per distinct count,
and every patient with that count gets the same value.  The NB pmf's
lgamma(y + alpha) - lgamma(alpha) is a log rising factorial, a running sum
of log(alpha + k) over k < y, with the part of a count above
B = ``sampler._RISING_BOUND`` from a Stirling series
(``sampler.log_rising``); lgamma(y + 1) is ``math.lgamma`` of each distinct
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .sampler import PosteriorDraws, log_rising


@dataclass(frozen=True)
class LpdResult:
    """Per-patient log predictive densities plus summary statistics."""

    per_patient: tuple[float, ...]

    @property
    def n_patients(self) -> int:
        return len(self.per_patient)

    @property
    def mean_lpd(self) -> float:
        return float(np.mean(self.per_patient))

    @property
    def sd_lpd(self) -> float:
        """Sample standard deviation across patients (0.0 for one patient)."""
        if len(self.per_patient) < 2:
            return 0.0
        return float(np.std(self.per_patient, ddof=1))


def lpd_dataset(test: Dataset, draws: PosteriorDraws, *,
                seed: int | None = None) -> LpdResult:
    """Evaluate every patient in ``test`` against the posterior.

    Value i is log mean_s NB(y_i; alpha_s, beta_s / (1 + beta_s)) over the
    pooled draws.  Nothing is random, so ``seed`` is ignored; it is kept so
    that callers written for the Monte Carlo estimator still run.
    """
    alpha, beta = draws.pooled_hyperparams()
    if alpha.size == 0:
        raise ValueError("posterior contains no draws")
    ys, patient_y = np.unique(test.counts(), return_inverse=True)
    y = ys.astype(np.float64)[:, None]
    # log NB(y; alpha, beta / (1 + beta)), one row per distinct count
    logp = log_rising(alpha, ys) - (alpha + y) * np.log1p(beta)
    logp += alpha * np.log(beta)
    logp -= np.array([math.lgamma(v + 1.0) for v in ys.tolist()])[:, None]
    # log-mean-exp per row; a posterior at one point gives its log-pmf exactly
    m = logp.max(axis=1, keepdims=True)
    logp -= m
    np.exp(logp, out=logp)
    values = m[:, 0] + np.log(logp.mean(axis=1))
    return LpdResult(per_patient=tuple(values[patient_y].tolist()))

"""Log predictive density evaluation for held-out patients.

For each test patient we integrate the Poisson likelihood over the
posterior of a *new* site's rate: lambda_new is drawn once per pooled
posterior sample from Gamma(alpha^(s), beta^(s)), the Poisson log-pmf is
evaluated at the observed count, and the sample average is taken in log
space (log-sum-exp minus log S).  Fresh lambda_new draws are made per
patient from an RNG keyed by (seed, patient index), so per-patient values
do not depend on evaluation order.

``lpd_dataset`` takes patient i's generator from the i-th ``spawn`` child of
the (seed, "lpd") seed sequence, which is the stream
``seeding.rng(seed, "lpd", i)`` gives.  It draws the lambda_new of
_LPD_BLOCK patients into the rows of one block and computes the log-pmf and
the row-wise log-sum-exp for the whole block at once, with the same
element-wise steps as ``lpd_patient``, so each value is bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import seeding
from .data import Dataset
from .model import poisson_logpmf
from .sampler import PosteriorDraws

# patients per block in lpd_dataset, so no temporary grows with the test set
_LPD_BLOCK = 64


def log_sum_exp(values: np.ndarray) -> float:
    """Numerically stable log(sum(exp(values))).

    Accepts -inf entries; an all-(-inf) input returns -inf.  Empty input
    is an error.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("log_sum_exp of empty array")
    m = arr.max()
    if m == -math.inf:
        return -math.inf
    return float(m + np.log(np.exp(arr - m).sum()))


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


def lpd_patient(y_obs: int, draws: PosteriorDraws, rng: np.random.Generator) -> float:
    """Monte Carlo log predictive density of one observed count."""
    if y_obs < 0:
        raise ValueError(f"observed count must be >= 0, got {y_obs}")
    alpha, beta = draws.pooled_hyperparams()
    n = alpha.size
    if n == 0:
        raise ValueError("posterior contains no draws")
    lam_new = np.maximum(rng.gamma(shape=alpha, scale=1.0 / beta), 1e-300)
    return log_sum_exp(poisson_logpmf(y_obs, lam_new)) - math.log(n)


def lpd_dataset(test: Dataset, draws: PosteriorDraws, seed: int) -> LpdResult:
    """Evaluate every patient in ``test`` against the posterior.

    Patients are keyed by their position in the dataset, giving each an
    independent reproducible stream of lambda_new draws; value i equals
    ``lpd_patient(y_i, draws, seeding.rng(seed, "lpd", i))`` bit for bit.
    """
    alpha, beta = draws.pooled_hyperparams()
    n = alpha.size
    if n == 0:
        raise ValueError("posterior contains no draws")
    inv_beta = 1.0 / beta
    log_n = math.log(n)
    counts = test.counts().astype(np.float64)
    streams = seeding.seed_sequence(seed, "lpd").spawn(counts.size)
    lam = np.empty((_LPD_BLOCK, n))
    logp = np.empty_like(lam)
    values: list[float] = []
    for start in range(0, counts.size, _LPD_BLOCK):
        y = counts[start:start + _LPD_BLOCK, None]
        rows = y.shape[0]
        lam_b, logp_b = lam[:rows], logp[:rows]
        for r in range(rows):
            np.random.default_rng(streams[start + r]).standard_gamma(alpha, out=lam_b[r])
        # the same element-wise steps as lpd_patient: Gamma(alpha, beta) is
        # standard_gamma(alpha) * (1 / beta), floored, then poisson_logpmf
        lam_b *= inv_beta
        np.maximum(lam_b, 1e-300, out=lam_b)
        np.log(lam_b, out=logp_b)
        logp_b *= y
        logp_b -= lam_b
        logp_b -= gammaln(y + 1.0)
        # log-sum-exp per row; the rate floor keeps every log-pmf above -inf
        m = logp_b.max(axis=1)
        logp_b -= m[:, None]
        np.exp(logp_b, out=logp_b)
        lse = m + np.log(logp_b.sum(axis=1))
        values.extend((lse - log_n).tolist())
    return LpdResult(per_patient=tuple(values))

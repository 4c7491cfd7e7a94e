"""Log predictive density evaluation for held-out patients.

A test patient's count is scored against the posterior predictive of a
*new* site: given (alpha, beta), a Poisson count mixed over a new site's
Gamma(alpha, beta) rate is NB(y; alpha, beta / (1 + beta)) (BDA3 section
2.7).  Each distinct count is evaluated once, its lgamma(y + alpha) -
lgamma(alpha) by ``sampler.log_rising``.  ``lpd_dataset`` averages the NB
over the pooled draws of a fit, log (1/S) sum_s NB(y; alpha_s, beta_s /
(1 + beta_s)): the Rao-Blackwellised estimate, exact given the draws.

``quadrature_lpd``, which scores the experiment cells, integrates it over
the exact posterior instead.  A coarse grid over (log alpha, log beta) in
[-30, 12]^2 holds even an all-zero training set's posterior, whose alpha
reaches down to 0.  The box covers every point within ``_LOG_DROP`` of the
peak of the posterior, or of the predictive integrand of the smallest or
largest test count (a count far above the training rates takes its mass
from where the posterior is negligible).  Grids of ``_GRID_SIZES`` score
every count until two in a row agree within ``_GRID_TOL``; if they never
do, or more than ``_EDGE_MASS`` of the posterior lies on a grid's edge,
``NumericalError`` is raised.  A grid's sum is one (counts x G) (G x G)
matrix product of scaled factors, or a log-space sum where that underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .model import HyperPriorSpec, NumericalError
from .sampler import PosteriorDraws, _LogTarget, log_rising

# quadrature_lpd's grids and bounds (see the module docstring)
_COARSE = np.linspace(-30.0, 12.0, 211)
_COARSE_LOG1P = np.log1p(np.exp(_COARSE))  # log1p(beta), and alpha log(beta / (1 + beta))
_COARSE_LOG_Q = np.exp(_COARSE)[:, None] * (_COARSE - _COARSE_LOG1P)
_LOG_DROP = 40.0
_GRID_SIZES = (64, 128, 256, 512, 1024)
_GRID_TOL = 1e-9
_EDGE_MASS = 1e-6
_SMALL_SUM = 1e-200


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


def quadrature_lpd(train: Dataset, spec: HyperPriorSpec, test: Dataset) -> LpdResult:
    """Evaluate every patient in ``test`` against the exact posterior given
    ``train`` under ``spec``: value i is
    log E[NB(y_i; alpha, beta / (1 + beta)) | train]."""
    target = _LogTarget(train.site_totals() * 1.0, train.site_sizes() * 1.0, spec)
    ys, patient_y = np.unique(test.counts(), return_inverse=True)
    lp = target.grid(_COARSE, _COARSE)
    keep = lp > lp.max() - _LOG_DROP
    lp += _COARSE_LOG_Q  # the factor (beta / (1 + beta))^alpha of every count's NB
    for y in {ys[0], ys[-1]}:  # their predictive integrands, up to lgamma(y + 1)
        tilted = lp + log_rising(np.exp(_COARSE), [y]).T - y * _COARSE_LOG1P if y else lp
        keep |= tilted > tilted.max() - _LOG_DROP
    step = _COARSE[1] - _COARSE[0]
    box = [(_COARSE[i.min()] - step, _COARSE[i.max()] + step) for i in np.nonzero(keep)]
    values = None
    for n_grid in _GRID_SIZES:
        finer, edge = _grid_lpd(target, box, n_grid, ys)
        if not edge < _EDGE_MASS:
            raise NumericalError(f"quadrature grid leaves {edge:.2g} of the mass on its edge")
        if values is not None and np.abs(finer - values).max() <= _GRID_TOL:
            return LpdResult(per_patient=tuple(finer[patient_y].tolist()))
        values = finer
    raise NumericalError(f"quadrature LPD still moves by over {_GRID_TOL:g} at G = {n_grid}")


def _grid_lpd(target, box, n_grid: int, ys: np.ndarray) -> tuple[np.ndarray, float]:
    """log sum_ij w_ij NB(y; alpha_i, beta_j / (1 + beta_j)) for each count
    y of ``ys`` on an n_grid x n_grid grid over ``box``, with w the
    normalised posterior, and the share of w on the grid's edge."""
    u, v = (np.linspace(lo, hi, n_grid) for lo, hi in box)
    a, log1p_b = np.exp(u), np.log1p(np.exp(v))
    lw = target.grid(u, v)
    lw -= lw.max()
    w = np.exp(lw)
    edge = (w[[0, -1]].sum() + w[1:-1, [0, -1]].sum()) / w.sum()
    # w_ij (beta_j / (1 + beta_j))^alpha_i and (1 + beta_j)^-y, scaled per row
    log_wq = lw + a[:, None] * (v - log1p_b)
    log_tail = -ys[:, None].astype(np.float64) * log1p_b
    by_alpha, by_count = log_wq.max(axis=1), log_tail.max(axis=1)
    sums = np.exp(log_tail - by_count[:, None]) @ np.exp(log_wq - by_alpha[:, None]).T
    log_rise = log_rising(a, ys) + by_alpha
    top = log_rise.max(axis=1)
    scaled = (np.exp(log_rise - top[:, None]) * sums).sum(axis=1)
    small = scaled < _SMALL_SUM
    values = top + by_count + np.log(np.where(small, 1.0, scaled))
    for k in np.flatnonzero(small):
        terms = log_rise[k, :, None] - by_alpha[:, None] + log_wq + log_tail[k]
        values[k] = terms.max() + np.log(np.exp(terms - terms.max()).sum())
    values -= np.log(w.sum()) + np.array([math.lgamma(y + 1.0) for y in ys.tolist()])
    return values, edge

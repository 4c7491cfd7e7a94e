"""Log predictive density evaluation for held-out patients.

A test patient's count is scored against the posterior predictive of a
*new* site: given (alpha, beta), a Poisson count mixed over a new site's
Gamma(alpha, beta) rate is NB(y; alpha, beta / (1 + beta)) (BDA3 section
2.7).  Each distinct count is evaluated once, its lgamma(y + alpha) -
lgamma(alpha) by ``sampler.log_rising``.  ``lpd_dataset`` averages the NB
over the pooled draws of a fit, log (1/S) sum_s NB(y; alpha_s, beta_s /
(1 + beta_s)): the Rao-Blackwellised estimate, exact given the draws.

The experiment cells integrate it over the exact posterior instead.  A
coarse grid over (log alpha, log beta) in [-30, 12]^2 holds even an
all-zero training set's posterior, whose alpha reaches down to 0.  The box
covers every point within ``_LOG_DROP`` of the peak of the posterior, or
of the predictive integrand of the smallest or largest test count (a count
far above the training rates takes its mass from where the posterior is
negligible).  Grids of ``_GRID_SIZES`` score every count until two in a
row agree within ``_GRID_TOL``; if they never do, or more than
``_EDGE_MASS`` of the posterior lies on a grid's edge, ``NumericalError``
is raised.  A grid's sum is one (counts x G) (G x G) matrix product of
scaled factors, or a log-space sum where that underflows.

Every condition of an experiment scores the same training and test sets,
and only the prior's two rates differ, so the terms that do not depend on
the prior are built once per ``Split`` (a training set with the
``HeldOut`` count table it is scored on): the training set's statistics,
and per grid (box, G), the coarse one too, a memo of the data's target
terms, the (beta / (1 + beta))^alpha and (1 + beta)^-y factors and the log
rising factorials of the test counts.  A cell then adds only its prior's
terms, each in the order a fresh ``Split`` would, so sharing moves no bit.
``Split.lpd`` keeps each prior's result, so a repeated cell is scored once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .model import HyperPriorSpec, NumericalError
from .sampler import GridTerms, PosteriorDraws, _LogTarget, grid_posterior, log_rising

# the quadrature's grids and bounds (see the module docstring)
_COARSE_BOX = ((-30.0, 12.0), (-30.0, 12.0))
_COARSE = np.linspace(*_COARSE_BOX[0], 211)
_COARSE_LOG_Q = np.exp(_COARSE)[:, None] * (_COARSE - np.log1p(np.exp(_COARSE)))
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
    table = HeldOut(test)
    y = table.ys.astype(np.float64)[:, None]
    # log NB(y; alpha, beta / (1 + beta)), one row per distinct count
    logp = log_rising(alpha, table.ys) - (alpha + y) * np.log1p(beta)
    logp += alpha * np.log(beta)
    logp -= table.log_factorials[:, None]
    # log-mean-exp per row; a posterior at one point gives its log-pmf exactly
    m = logp.max(axis=1, keepdims=True)
    logp -= m
    np.exp(logp, out=logp)
    values = m[:, 0] + np.log(logp.mean(axis=1))
    return LpdResult(per_patient=tuple(values[table.patient_y].tolist()))


class HeldOut:
    """A test set's count table: its distinct counts ``ys``, each patient's
    index into them and log(y!) of each."""

    def __init__(self, test: Dataset):
        self.ys, self.patient_y = np.unique(test.counts(), return_inverse=True)
        self.log_factorials = np.array([math.lgamma(y + 1.0) for y in self.ys.tolist()])


class _FineTerms(NamedTuple):
    """One grid's terms for a split that the prior does not change."""

    target: GridTerms
    log_q: np.ndarray  # log(beta / (1 + beta)), which alpha multiplies
    log_tail: np.ndarray  # -y log(1 + beta), (counts, G)
    by_count: np.ndarray  # its row maxima
    tail: np.ndarray  # exp(log_tail - by_count)
    log_rise: np.ndarray  # lgamma(y + alpha) - lgamma(alpha), (counts, G)


class Split:
    """A training set and the ``HeldOut`` count table its cells score,
    with the quadrature's prior-free terms built once (see the module
    docstring)."""

    def __init__(self, train: Dataset, held_out: HeldOut):
        self.train, self.held_out = train, held_out
        self._target = _LogTarget(train.site_totals() * 1.0, train.site_sizes() * 1.0)
        self._fine: dict[tuple, _FineTerms] = {}
        # the coarse grid's terms, which every cell reads, built up front:
        # built amid a cell's temporaries, they slowed `cv` by heap churn
        self._fine_terms(_COARSE_BOX, _COARSE.size)
        self._scores: dict[HyperPriorSpec, LpdResult] = {}

    def lpd(self, spec: HyperPriorSpec) -> LpdResult:
        """log E[NB(y_i; alpha, beta / (1 + beta)) | train] of each held-out
        patient i, under the exact posterior given the training set and
        ``spec``; a prior scored before returns its kept result."""
        if spec not in self._scores:
            self._scores[spec] = self._quadrature((spec.alpha_rate, spec.beta_rate))
        return self._scores[spec]

    def _quadrature(self, rates: tuple[float, float]) -> LpdResult:
        coarse = self._fine_terms(_COARSE_BOX, _COARSE.size)
        lp = grid_posterior(coarse.target, rates)
        keep = lp > lp.max() - _LOG_DROP
        lp += _COARSE_LOG_Q  # the factor (beta / (1 + beta))^alpha of every count's NB
        for k in {0, self.held_out.ys.size - 1}:  # predictive integrands, up to lgamma(y + 1)
            tilted = lp
            if self.held_out.ys[k]:  # a count of 0 adds nothing
                tilted = lp + coarse.log_rise[k][:, None]
                tilted += coarse.log_tail[k]
            keep |= tilted > tilted.max() - _LOG_DROP
        step = _COARSE[1] - _COARSE[0]
        # the first and last alpha row, then beta column, that keep a point
        box = tuple((_COARSE[i[0]] - step, _COARSE[i[-1]] + step)
                    for i in (np.flatnonzero(keep.any(axis=axis)) for axis in (1, 0)))
        values = None
        for n_grid in _GRID_SIZES:
            finer, edge = _grid_lpd(self, box, n_grid, rates)
            if not edge < _EDGE_MASS:
                raise NumericalError(f"quadrature grid leaves {edge:.2g} of the mass on its edge")
            if values is not None and np.abs(finer - values).max() <= _GRID_TOL:
                return LpdResult(per_patient=tuple(finer[self.held_out.patient_y].tolist()))
            values = finer
        raise NumericalError(f"quadrature LPD still moves by over {_GRID_TOL:g} at G = {n_grid}")

    def _fine_terms(self, box: tuple, n_grid: int) -> _FineTerms:
        """The memo's terms of the n_grid x n_grid grid over ``box``."""
        terms = self._fine.get((box, n_grid))
        if terms is None:
            u, v = (np.linspace(lo, hi, n_grid) for lo, hi in box)
            target = self._target.grid_terms(u, v)
            log1p_b = np.log1p(target.b)
            log_tail = -self.held_out.ys[:, None].astype(np.float64) * log1p_b
            by_count = log_tail.max(axis=1)
            terms = self._fine[box, n_grid] = _FineTerms(
                target, v - log1p_b, log_tail, by_count,
                np.exp(log_tail - by_count[:, None]), log_rising(target.a, self.held_out.ys))
        return terms


def _grid_lpd(split: Split, box: tuple, n_grid: int,
              rates: tuple[float, float]) -> tuple[np.ndarray, float]:
    """log sum_ij w_ij NB(y; alpha_i, beta_j / (1 + beta_j)) for each count
    y of the split's test set on an n_grid x n_grid grid over ``box``, with
    w the normalised posterior under ``rates``, and the share of w on the
    grid's edge."""
    t = split._fine_terms(box, n_grid)
    lw = grid_posterior(t.target, rates)
    lw -= lw.max()
    w = np.exp(lw)
    edge = (w[[0, -1]].sum() + w[1:-1, [0, -1]].sum()) / w.sum()
    # w_ij (beta_j / (1 + beta_j))^alpha_i and (1 + beta_j)^-y, scaled per row
    log_wq = np.multiply(t.target.a[:, None], t.log_q)
    log_wq += lw
    by_alpha = log_wq.max(axis=1)
    scaled_wq = np.subtract(log_wq, by_alpha[:, None])
    sums = t.tail @ np.exp(scaled_wq, out=scaled_wq).T
    log_rise = t.log_rise + by_alpha
    top = log_rise.max(axis=1)
    scaled = (np.exp(log_rise - top[:, None]) * sums).sum(axis=1)
    small = scaled < _SMALL_SUM
    values = top + t.by_count + np.log(np.where(small, 1.0, scaled))
    for k in np.flatnonzero(small):
        terms = log_rise[k, :, None] - by_alpha[:, None] + log_wq + t.log_tail[k]
        values[k] = terms.max() + np.log(np.exp(terms - terms.max()).sum())
    values -= np.log(w.sum()) + split.held_out.log_factorials
    return values, edge

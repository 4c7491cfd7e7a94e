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
the prior are built once per ``Split(train, test)``: the test set's count
table (its distinct counts, each patient's index into them and log y!),
the training set's statistics (``sampler._LogTarget``), and per grid
(box, G), the coarse one too, a ``_Grid`` holding the data's target terms,
the (beta / (1 + beta))^alpha and (1 + beta)^-y factors and the log rising
factorials of the test counts.  ``_Grid.posterior`` adds a prior's terms,
each in the order a fresh ``Split`` would, so sharing moves no bit.
``Split.quadrature`` returns and keeps a prior's ``Quadrature`` (its
``LpdResult``, box, G, edge mass and last refinement change), so a
repeated cell is scored once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .model import HyperPriorSpec, NumericalError
from .sampler import PosteriorDraws, _LogTarget, log_rising

# the quadrature's grids and bounds (see the module docstring)
_COARSE_BOX = ((-30.0, 12.0), (-30.0, 12.0))
_COARSE = np.linspace(*_COARSE_BOX[0], 211)
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
    ys, patient_y, log_factorials = _count_table(test)
    y = ys.astype(np.float64)[:, None]
    # log NB(y; alpha, beta / (1 + beta)), one row per distinct count
    logp = log_rising(alpha, ys) - (alpha + y) * np.log1p(beta)
    logp += alpha * np.log(beta)
    logp -= log_factorials[:, None]
    # log-mean-exp per row; a posterior at one point gives its log-pmf exactly
    m = logp.max(axis=1, keepdims=True)
    logp -= m
    np.exp(logp, out=logp)
    values = m[:, 0] + np.log(logp.mean(axis=1))
    return LpdResult(per_patient=tuple(values[patient_y].tolist()))


def _count_table(test: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A test set's distinct counts, each patient's index into them and
    log(y!) of each count."""
    if test.n_patients == 0:
        raise ValueError("the test set holds no patients")
    ys, patient_y = np.unique(test.counts(), return_inverse=True)
    return ys, patient_y, np.array([math.lgamma(y + 1.0) for y in ys.tolist()])


class Quadrature(NamedTuple):
    """A prior's checked grid: its ``LpdResult``, the (log alpha, log beta)
    box, the G its values settled at, the share of the posterior on that
    grid's edge, and the largest change of a count's value from G / 2."""

    lpd: LpdResult
    box: tuple[tuple[float, float], tuple[float, float]]
    n_grid: int
    edge_mass: float
    change: float


class _Grid:
    """A split's prior-free terms on the G x G grid over ``box``: the
    (log alpha, log beta) grid u x v, alpha = e^u and beta = e^v, the data's
    target terms (``_LogTarget.grid_terms``) and the NB factors of the test
    counts ``ys``."""

    def __init__(self, target: _LogTarget, ys: np.ndarray, box: tuple, n_grid: int):
        self.u, self.v = (np.linspace(lo, hi, n_grid) for lo, hi in box)
        self.a, self.b = np.exp(self.u), np.exp(self.v)
        self.rising, self.alpha_coef, self.beta_term = target.grid_terms(self.a, self.b)
        log1p_b = np.log1p(self.b)
        self.log_tail = -ys[:, None].astype(np.float64) * log1p_b  # -y log(1 + beta)
        self.by_count = self.log_tail.max(axis=1)  # its row maxima
        self.log_q = self.v - log1p_b  # log(beta / (1 + beta)), which alpha multiplies
        self.tail = np.exp(self.log_tail - self.by_count[:, None])
        self.log_rise = log_rising(self.a, ys)  # lgamma(y + alpha) - lgamma(alpha)

    def posterior(self, rates: tuple[float, float]) -> np.ndarray:
        """The target on this grid under the hyperprior's (alpha_rate,
        beta_rate), as a (G, G) array."""
        by_alpha = self.rising - rates[0] * self.a + self.u
        by_beta = self.beta_term - rates[1] * self.b + self.v
        out = np.multiply(self.a[:, None], self.alpha_coef)
        # the bits of (by_alpha - alpha (-A)) + by_beta: a sum rounds the same
        # with its two terms either way round, and a negation is exact
        out += by_alpha[:, None]
        out += by_beta
        return out


class Split:
    """A training set and the test set its cells score, with the test
    counts' table and the quadrature's prior-free terms built once (see
    the module docstring)."""

    def __init__(self, train: Dataset, test: Dataset):
        self.train, self.test = train, test
        self._ys, self._patient_y, self._log_factorials = _count_table(test)
        self._target = _LogTarget(train.site_totals() * 1.0, train.site_sizes() * 1.0)
        self._grids: dict[tuple, _Grid] = {}
        # the coarse grid's terms, which every cell reads, built up front:
        # built amid a cell's temporaries, they slowed `cv` by heap churn
        self._grid(_COARSE_BOX, _COARSE.size)
        self._scores: dict[HyperPriorSpec, Quadrature] = {}

    def quadrature(self, spec: HyperPriorSpec) -> Quadrature:
        """The checked grid that scores ``spec``: its ``lpd`` holds
        log E[NB(y_i; alpha, beta / (1 + beta)) | train] of each test
        patient i, under the exact posterior given the training set and
        ``spec``.  A prior scored before returns its kept record."""
        if spec in self._scores:
            return self._scores[spec]
        rates = (spec.alpha_rate, spec.beta_rate)
        coarse = self._grid(_COARSE_BOX, _COARSE.size)
        lp = coarse.posterior(rates)
        keep = lp > lp.max() - _LOG_DROP
        # the factor (beta / (1 + beta))^alpha of every count's NB
        lp += np.multiply(coarse.a[:, None], coarse.log_q)
        for k in {0, self._ys.size - 1}:  # predictive integrands, up to lgamma(y + 1)
            tilted = lp
            if self._ys[k]:  # a count of 0 adds nothing
                tilted = lp + coarse.log_rise[k][:, None]
                tilted += coarse.log_tail[k]
            keep |= tilted > tilted.max() - _LOG_DROP
        step = _COARSE[1] - _COARSE[0]
        # the first and last alpha row, then beta column, that keep a point
        box = tuple((_COARSE[i[0]] - step, _COARSE[i[-1]] + step)
                    for i in (np.flatnonzero(keep.any(axis=axis)) for axis in (1, 0)))
        values = None
        for n_grid in _GRID_SIZES:
            finer, edge = self._grid_lpd(box, n_grid, rates)
            if not edge < _EDGE_MASS:
                raise NumericalError(f"quadrature grid leaves {edge:.2g} of the mass on its edge")
            if values is not None:
                change = float(np.abs(finer - values).max())
                if change <= _GRID_TOL:
                    lpd = LpdResult(per_patient=tuple(finer[self._patient_y].tolist()))
                    self._scores[spec] = Quadrature(lpd, box, n_grid, float(edge), change)
                    return self._scores[spec]
            values = finer
        raise NumericalError(f"quadrature LPD still moves by over {_GRID_TOL:g} at G = {n_grid}")

    def _grid(self, box: tuple, n_grid: int) -> _Grid:
        """The memo's n_grid x n_grid grid over ``box``."""
        if (box, n_grid) not in self._grids:
            self._grids[box, n_grid] = _Grid(self._target, self._ys, box, n_grid)
        return self._grids[box, n_grid]

    def _grid_lpd(self, box: tuple, n_grid: int,
                  rates: tuple[float, float]) -> tuple[np.ndarray, float]:
        """log sum_ij w_ij NB(y; alpha_i, beta_j / (1 + beta_j)) for each
        count y of the test set on the n_grid x n_grid grid over ``box``,
        with w the normalised posterior under ``rates``, and the share of w
        on the grid's edge."""
        t = self._grid(box, n_grid)
        lw = t.posterior(rates)
        lw -= lw.max()
        w = np.exp(lw)
        edge = (w[[0, -1]].sum() + w[1:-1, [0, -1]].sum()) / w.sum()
        # w_ij (beta_j / (1 + beta_j))^alpha_i and (1 + beta_j)^-y, scaled per row
        log_wq = np.multiply(t.a[:, None], t.log_q)
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
        values -= np.log(w.sum()) + self._log_factorials
        return values, edge

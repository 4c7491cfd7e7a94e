"""Collapsed sampler for the hierarchical Poisson-Gamma model.

With the site rates integrated out, the posterior of (alpha, beta) is
two-dimensional: site j (event total t_j, n_j patients) contributes
beta^alpha Gamma(alpha + t_j) / (Gamma(alpha) (beta + n_j)^(alpha + t_j)),
which ``_LogTarget`` evaluates from sufficient statistics.

One fitter samples a batch of fits (``fit_batch``), and a single fit is a
batch of one.  Every chain of every fit in the batch is one row of a
(rows, 2) state, and all rows take one Gaussian random-walk Metropolis step
on (log alpha, log beta) per iteration.  The fits of a batch share
n_chains, n_warmup and n_draws.  Each statistic of the target is a
(K, rows) array with the term index leading, padded with terms that add
exactly 0, and the K terms are summed one at a time; so a row's value, and
its chain, do not depend on which fits share the batch.
Fits are sampled in slabs of at most ``_SLAB_BYTES`` of up-front arrays
(proposal normals, log-uniforms and the trace: 40 B per chain and
iteration), so memory stays bounded however many fits a batch holds.

Chain c of a fit draws its start, proposal normals and acceptance uniforms
up front from its own stream ``seeding.rng(seed, c)``, a fixed count per
iteration, so its draws depend neither on the number of chains nor on its
batch.  Warmup adapts each chain's kernel (Haario, Saksman & Tamminen 2001;
Roberts & Rosenthal 2009): the log step scale moves after every iteration
by (accepted - _TARGET_ACCEPT) times a gain decaying as k ** -0.6.  At
the end of each 50-iteration window but the last, a chain that moved at
least 10 times in the latter half of its warmup so far takes 2.38^2 / 2
times the covariance of those draws as its proposal, and its scale and gain
start afresh.  The kept draws use the final kernel unchanged.

Given (alpha, beta), lambda_j ~ Gamma(alpha + t_j, beta + n_j) exactly:
``run_mcmc`` draws every site rate for every kept draw, one
``standard_gamma`` call per chain, for the ``fit`` export and site R-hat;
``fit_batch`` draws none.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from . import seeding
from .data import Dataset
from .model import HyperPriorSpec

# Gamma draws with tiny shape can underflow to exactly 0.0, which the log
# densities cannot absorb; rates are floored at this positive value.
_RATE_FLOOR = 1e-300

# warmup adaptation, as the module docstring describes; _TARGET_ACCEPT is
# the one-dimensional optimum (Gelman, Roberts & Gilks 1996) and _RW_SCALE
# 2.38**2 / d for a d = 2 Gaussian target
_ADAPT_WINDOW = 50
_TARGET_ACCEPT = 0.44
_GAIN_DECAY = 0.6
_MIN_MOVES = 10
_RW_SCALE = 2.38 ** 2 / 2
_INITIAL_STEP = 0.5
# sites per split-R-hat block and draws per export block, so no temporary
# grows with the site count
_BLOCK_ROWS = 64
# bytes of one slab's up-front arrays; see the module docstring
_SLAB_BYTES = 8 << 20


class NumericalError(RuntimeError):
    """Non-finite log density encountered during sampling."""


@dataclass(frozen=True)
class McmcConfig:
    """Chain configuration; the defaults are the reference setup
    (4 chains, 1000 warmup + 1000 kept draws)."""

    n_chains: int = 4
    n_warmup: int = 1000
    n_draws: int = 1000
    seed: int = 0
    rhat_threshold: float = 1.1
    freeze_hyperparams: tuple[float, float] | None = None
    no_data: bool = False

    def __post_init__(self):
        if self.n_chains < 1 or self.n_warmup < 1 or self.n_draws < 1:
            raise ValueError("n_chains, n_warmup and n_draws must be positive")
        if not self.rhat_threshold > 1.0:  # nan fails too
            raise ValueError("rhat_threshold must be > 1")
        if self.freeze_hyperparams is not None and not all(
                0 < v < math.inf for v in self.freeze_hyperparams):
            raise ValueError("frozen hyperparameters must be finite and positive")


@dataclass(frozen=True)
class PosteriorDraws:
    """Post-warmup draws from all chains, plus split-R-hat diagnostics.

    ``alpha`` and ``beta`` have shape (n_chains, n_draws); ``lambdas`` has
    shape (n_chains, n_draws, n_sites) aligned with ``site_ids``.
    """

    alpha: np.ndarray
    beta: np.ndarray
    lambdas: np.ndarray
    site_ids: tuple[str, ...]
    config: McmcConfig
    diagnostics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for arr in (self.alpha, self.beta, self.lambdas):
            arr.setflags(write=False)

    def pooled_hyperparams(self) -> tuple[np.ndarray, np.ndarray]:
        """All (alpha, beta) draws flattened across chains."""
        return self.alpha.reshape(-1), self.beta.reshape(-1)

    def rhat_flags(self, threshold: float | None = None) -> dict[str, float]:
        """Parameters whose R-hat meets or exceeds the threshold
        (degenerate chains report inf and are always flagged)."""
        thr = self.config.rhat_threshold if threshold is None else threshold
        return {k: v for k, v in self.diagnostics.items() if v >= thr}


class _LogTarget:
    """log p(log alpha, log beta | data) up to a constant at (R, 2) points,
    row r under the sites and hyperprior of its fit (rows i * n_chains to
    (i + 1) * n_chains - 1 belong to fit i):
    J alpha log(beta) - J+ lgamma(alpha) + sum_t c_t lgamma(alpha + t)
    - sum_n (alpha M_n + T_n) log(beta + n) - alpha_rate alpha - beta_rate beta
    + log(alpha) + log(beta), over the distinct positive totals t (c_t sites
    each) and sizes n (M_n sites with T_n events) of J sites, J+ with events.
    The first two terms are stored as a total and a size of 0.  Sites without
    patients carry no likelihood, so ``no_data`` leaves the hyperprior.

    Each statistic is a (K, R) array, K the most terms of any fit.  A fit
    with fewer terms is padded with a total of 1 of weight 0 and a size of 1
    without sites or events, which add exactly 0 at any finite alpha and
    beta, zero included."""

    def __init__(self, fits: list[tuple[np.ndarray, np.ndarray, HyperPriorSpec]],
                 n_chains: int):
        terms = zip(*(_site_terms(totals, sizes) for totals, sizes, _ in fits))
        (self.shifts, self.shift_weights, self.sizes, self.size_sites,
         self.size_events) = (_pad_rows(columns, pad, n_chains)
                              for columns, pad in zip(terms, (1.0, 0.0, 1.0, 0.0, 0.0)))
        self.rates = np.repeat([[spec.alpha_rate for *_, spec in fits],
                                [spec.beta_rate for *_, spec in fits]], n_chains, axis=1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        e = np.exp(x)
        a, b = e[:, 0], e[:, 1]
        return (_sum_terms(gammaln(a + self.shifts) * self.shift_weights)
                - _sum_terms((a * self.size_sites + self.size_events) * np.log(b + self.sizes))
                + ((x[:, 0] - a * self.rates[0]) + (x[:, 1] - b * self.rates[1])))


def _site_terms(totals: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, ...]:
    """One fit's shifts, shift weights, sizes, size sites and size events."""
    totals, sizes = totals[sizes > 0], sizes[sizes > 0]
    t, c = np.unique(totals[totals > 0], return_counts=True)
    n, of_size = np.unique(sizes, return_inverse=True)
    return (np.concatenate(([0.0], t)), np.concatenate(([-c.sum()], c)),
            np.concatenate(([0.0], n)),
            np.concatenate(([-sizes.size], np.bincount(of_size, minlength=n.size))),
            np.concatenate(([0.0], np.bincount(of_size, totals, n.size))))


def _pad_rows(columns: Sequence[np.ndarray], pad: float, n_chains: int) -> np.ndarray:
    """A C-contiguous (K, R) float array: fit i's values down each of its
    n_chains columns, padded with ``pad``."""
    out = np.full((max(map(len, columns)), len(columns)), pad)
    for i, column in enumerate(columns):
        out[:len(column), i] = column
    return np.repeat(out, n_chains, axis=1)


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    """Sum a (K, R) array over K, adding one term at a time in order.  numpy
    does so along a leading axis, except for a single column, which it sums
    pairwise; that would give a one-row batch other bits."""
    return terms.sum(axis=0) if terms.shape[1] > 1 else np.cumsum(terms, axis=0)[-1]


def _draw_lambdas(alpha, beta, totals: np.ndarray, sizes: np.ndarray,
                  rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """Exact Gamma(alpha + t, beta + n) site rates, with (alpha, beta)
    broadcast against the sites (a column of draws gives one row each)."""
    draws = rng.standard_gamma(np.add(alpha, totals, out=out), out=out)
    draws *= 1.0 / np.add(beta, sizes)
    return np.maximum(draws, _RATE_FLOOR, out=draws)


def _site_columns(dataset: Dataset, config: McmcConfig) -> tuple[np.ndarray, np.ndarray]:
    """Event totals and patient counts per site, as floats; zero under ``no_data``."""
    keep = 0.0 if config.no_data else 1.0
    return dataset.site_totals() * keep, dataset.site_sizes() * keep


Fit = tuple[Dataset, HyperPriorSpec, McmcConfig]


def _sample_batch(fits: Sequence[Fit]) -> list[tuple[np.ndarray, np.ndarray, list]]:
    """Each fit's kept (alpha, beta) draws, each of shape (n_chains, n_draws),
    and its chains' generators, positioned after the draws each consumed."""
    out: list = [None] * len(fits)
    sampled = []
    for i, (_, _, config) in enumerate(fits):
        if config.freeze_hyperparams is None:
            sampled.append(i)
        else:
            out[i] = (*(np.full((config.n_chains, config.n_draws), v)
                        for v in config.freeze_hyperparams),
                      [seeding.rng(config.seed, c) for c in range(config.n_chains)])
    shared = {(c.n_chains, c.n_warmup, c.n_draws) for c in (fits[i][2] for i in sampled)}
    if len(shared) > 1:
        raise ValueError("the fits of a batch must share n_chains, n_warmup and n_draws")
    if sampled:
        [(n_chains, n_warmup, n_draws)] = shared
        per_slab = max(1, _SLAB_BYTES // (40 * (n_warmup + n_draws) * n_chains))
        # as few slabs as the budget allows, of near-equal size
        for slab in np.array_split(sampled, -(-len(sampled) // per_slab)):
            for i, result in zip(slab, _sample_slab([fits[i] for i in slab])):
                out[i] = result
    return out


def _sample_slab(fits: list[Fit]) -> list[tuple[np.ndarray, np.ndarray, list]]:
    """``_sample_batch`` of fits that all take their steps, as one array."""
    config = fits[0][2]
    n_chains, n_warmup = config.n_chains, config.n_warmup
    n_iter, n_rows = n_warmup + config.n_draws, len(fits) * n_chains
    rngs = [seeding.rng(cfg.seed, c) for _, _, cfg in fits for c in range(n_chains)]
    x = np.empty((n_rows, 2))
    normals = np.empty((n_iter, n_rows, 2))
    log_u = np.empty((n_iter, n_rows))
    for r, rng in enumerate(rngs):
        spec = fits[r // n_chains][1]
        # overdispersed starts straight from the hyperprior
        x[r] = rng.exponential(1.0 / spec.alpha_rate), rng.exponential(1.0 / spec.beta_rate)
        normals[:, r] = rng.standard_normal((n_iter, 2))
        log_u[:, r] = np.log(rng.random(n_iter))
    log_post = _LogTarget([(*_site_columns(dataset, cfg), spec) for dataset, spec, cfg in fits],
                          n_chains)
    x = np.log(np.maximum(x, 1e-8))
    lp = log_post(x)
    trace = np.empty((n_iter, n_rows, 2))
    factor = np.tile(np.eye(2), (n_rows, 1, 1))  # Cholesky factor of the proposal shape
    log_step = np.full(n_rows, math.log(_INITIAL_STEP))
    gain_from = 0  # the iteration the step's gain sequence last started at
    # the kept draws run in windows too, so no temporary grows with n_draws
    bounds = [*range(0, n_warmup, _ADAPT_WINDOW), *range(n_warmup, n_iter, _ADAPT_WINDOW),
              n_iter]
    for lo, hi in zip(bounds, bounds[1:]):
        warmup = hi <= n_warmup
        if lo == n_warmup:  # the kept draws use the final kernel
            factor *= np.exp(log_step)[:, None, None]
        steps = (factor * normals[lo:hi, :, None, :]).sum(axis=-1)
        for it in range(lo, hi):
            prop = x + (np.exp(log_step)[:, None] * steps[it - lo] if warmup else steps[it - lo])
            lp_prop = log_post(prop)
            acc = log_u[it] < lp_prop - lp  # a nan proposal is rejected
            x = trace[it] = np.where(acc[:, None], prop, x)
            lp = np.where(acc, lp_prop, lp)
            if warmup:
                gain = (it + 1 - gain_from) ** -_GAIN_DECAY
                log_step += (acc - _TARGET_ACCEPT) * gain
        if hi - lo == _ADAPT_WINDOW and hi <= n_warmup - _ADAPT_WINDOW:
            # reshape by the latter half of the warmup so far where it moved enough
            recent = trace[hi // 2 - 1:hi]
            dev = recent[1:] - recent[1:].mean(axis=0)
            cov = (dev[..., :, None] * dev[..., None, :]).sum(axis=0)
            ok = (np.diff(recent, axis=0) != 0).any(axis=2).sum(axis=0) >= _MIN_MOVES
            factor[ok] = np.linalg.cholesky(cov[ok] * (_RW_SCALE / (len(dev) - 1)))
            log_step[ok] = 0.0
            gain_from = hi
    return [(*np.exp(trace[n_warmup:, rows].transpose(2, 1, 0).copy()), rngs[rows])
            for rows in (slice(i, i + n_chains) for i in range(0, n_rows, n_chains))]


def _hyper_rhat(alpha: np.ndarray, beta: np.ndarray, config: McmcConfig) -> dict[str, float]:
    if config.freeze_hyperparams is not None or config.n_chains < 2 or config.n_draws < 4:
        return {}
    return {"alpha": compute_rhat(alpha), "beta": compute_rhat(beta)}


def fit_batch(fits: Sequence[Fit]) -> list[PosteriorDraws]:
    """The (alpha, beta) draws of ``run_mcmc`` for each (dataset, spec,
    config), bit for bit, with their R-hat but no site rates (``site_ids``
    empty, ``lambdas`` of shape (C, D, 0)).  All chains are sampled
    together; the sampled fits must share n_chains, n_warmup and n_draws."""
    return [PosteriorDraws(alpha=alpha, beta=beta, lambdas=np.empty(alpha.shape + (0,)),
                           site_ids=(), config=config,
                           diagnostics=_hyper_rhat(alpha, beta, config))
            for (_, _, config), (alpha, beta, _) in zip(fits, _sample_batch(fits))]


def run_mcmc(dataset: Dataset, spec: HyperPriorSpec, config: McmcConfig) -> PosteriorDraws:
    """Fit the hierarchical model and return draws with diagnostics.

    Each kept (alpha, beta) draw gets one exact draw of every site rate.  In
    ``no_data`` mode the likelihood is suppressed and the chains sample the
    prior; with ``freeze_hyperparams`` set, (alpha, beta) stay fixed and only
    the conjugate site-rate draws move.
    """
    [(alpha, beta, rngs)] = _sample_batch([(dataset, spec, config)])
    totals, sizes = _site_columns(dataset, config)
    lambdas = np.empty(alpha.shape + totals.shape)
    for c, rng in enumerate(rngs):
        _draw_lambdas(alpha[c, :, None], beta[c, :, None], totals, sizes, rng, out=lambdas[c])
    if not all(np.isfinite(draws).all() for draws in (alpha, beta, lambdas)):
        raise NumericalError("non-finite draw in posterior output")
    diagnostics = _hyper_rhat(alpha, beta, config)
    if config.n_chains >= 2 and config.n_draws >= 4:
        for start in range(0, totals.size, _BLOCK_ROWS):
            block = lambdas[:, :, start:start + _BLOCK_ROWS].transpose(2, 0, 1)
            site_ids = dataset.site_ids[start:start + _BLOCK_ROWS]
            for site_id, rhat in zip(site_ids, _split_rhat(block).tolist()):
                diagnostics[f"lambda[{site_id}]"] = rhat

    return PosteriorDraws(
        alpha=alpha, beta=beta, lambdas=lambdas,
        site_ids=dataset.site_ids, config=config, diagnostics=diagnostics,
    )


def _split_rhat(chains: np.ndarray) -> np.ndarray:
    """Split R-hat (see ``compute_rhat``) of each of P parameters at once,
    from chains of shape (P, n_chains, n_draws).

    Every split half-chain becomes one row of a C-contiguous 2-D array and
    each reduction runs along a 2-D array's rows, so each parameter's sums
    run in the same order whatever P is; a 3-D array reduced along its last
    axis sums in another order and changes the last bits.
    """
    n_params, n_chains, n_draws = chains.shape
    half = n_draws // 2
    rows = np.concatenate([chains[:, :, :half], chains[:, :, n_draws - half:]], axis=1)
    rows = rows.reshape(n_params * 2 * n_chains, half)
    within = rows.var(axis=1, ddof=1).reshape(n_params, 2 * n_chains).mean(axis=1)
    between = half * rows.mean(axis=1).reshape(n_params, 2 * n_chains).var(axis=1, ddof=1)
    var_hat = (half - 1) / half * within + between / half
    # zero within-chain variance is degenerate: report inf, not nan
    rhat = np.full(n_params, math.inf)
    np.divide(var_hat, within, out=rhat, where=within != 0.0)
    return np.sqrt(rhat, out=rhat)


def compute_rhat(chains: np.ndarray) -> float:
    """Split Gelman-Rubin R-hat for one parameter.

    Each chain is halved (dropping the middle draw when odd), then the
    classic between/within variance ratio is computed on the half-chains.
    Zero within-chain variance is degenerate and reported as inf rather
    than raising.
    """
    arr = np.asarray(chains, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected (n_chains, n_draws) array, got shape {arr.shape}")
    if arr.shape[0] < 2 or arr.shape[1] < 4:
        raise ValueError("need at least 2 chains and 4 draws per chain")
    return float(_split_rhat(arr[None])[0])


def export_draws(draws: PosteriorDraws, path: str | os.PathLike,
                 include_hyperparams: bool = True) -> None:
    """Dump draws as columnar delimited text: chain, draw, parameter, value.

    The bytes are those of one ``csv.writer`` row per value (with
    ``repr(float)`` values), but each parameter name is csv-escaped once and
    draws are formatted _BLOCK_ROWS at a time.
    """
    names = [f"lambda[{site_id}]" for site_id in draws.site_ids]
    if include_hyperparams:
        names = ["alpha", "beta"] + names
    # the csv-escaped "<parameter>," of each column, in column order
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = []
    for name in names:
        buf.seek(0)
        buf.truncate()
        writer.writerow((name, ""))
        columns.append(buf.getvalue()[:-1])
    n_chains, n_draws = draws.alpha.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("chain,draw,parameter,value\n")
        # without a single column (no sites, hyperparameters left out) a draw
        # has no line
        for c in range(n_chains if columns else 0):
            for start in range(0, n_draws, _BLOCK_ROWS):
                block = draws.lambdas[c, start:start + _BLOCK_ROWS]
                if include_hyperparams:
                    hyper = (draws.alpha[c, start:start + _BLOCK_ROWS, None],
                             draws.beta[c, start:start + _BLOCK_ROWS, None])
                    block = np.concatenate(hyper + (block,), axis=1)
                lines = []
                for d, row in enumerate(block.tolist(), start=start):
                    prefix = f"{c},{d},"
                    lines.append(prefix)
                    lines.append(("\n" + prefix).join(map(str.__add__, columns, map(repr, row))))
                    lines.append("\n")
                fh.write("".join(lines))

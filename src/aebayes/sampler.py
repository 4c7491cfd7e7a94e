"""Metropolis-within-Gibbs sampler for the hierarchical Poisson-Gamma model.

Each chain runs one loop.  Every iteration first draws all site rates
exactly from their conjugate conditionals Gamma(alpha + t_j, beta + n_j),
then moves alpha and then beta by one Gaussian random-walk Metropolis step
each on the log scale, with the log-transform Jacobian in the acceptance
ratio.  Both steps read only the sufficient statistics of the rates (their
count, sum and sum of logs), computed once per iteration.  During warmup
each step size is scaled by exp(acceptance rate - target) every 50
iterations; the kept draws use the final step sizes.  Each chain owns an
RNG stream derived from (seed, chain_index), so results are
bit-reproducible and independent of scheduling.

The loop calls the generator's core methods, which skip the argument
handling of their wrappers: ``standard_gamma(alpha + t)`` times
1 / (beta + n) for the site rates, ``standard_normal()`` for a proposal and
``random()`` for an acceptance test.  numpy computes ``gamma(shape, scale)``,
``normal()`` and ``uniform()`` as exactly these core draws times the scale
plus the location, so the stream and every value are those of
Gamma(alpha + t, beta + n), Normal(0, 1) and Uniform(0, 1).  Site R-hat is
computed _BLOCK_ROWS sites at a time (see ``_split_rhat``).
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from . import seeding
from .data import Dataset
from .model import HyperPriorSpec

# Gamma draws with tiny shape can underflow to exactly 0.0, which the log
# densities cannot absorb; rates are floored at this positive value.
_RATE_FLOOR = 1e-300

_ADAPT_WINDOW = 50
# sites per split-R-hat block and draws per export block, so no temporary
# grows with the site count
_BLOCK_ROWS = 64
_INITIAL_STEP = 0.5


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
    adapt_target_accept: float = 0.44
    rhat_threshold: float = 1.1
    freeze_hyperparams: tuple[float, float] | None = None
    no_data: bool = False

    def __post_init__(self):
        if self.n_chains < 1 or self.n_warmup < 1 or self.n_draws < 1:
            raise ValueError("n_chains, n_warmup and n_draws must be positive")
        if not 0.0 < self.adapt_target_accept < 1.0:
            raise ValueError("adapt_target_accept must be in (0, 1)")
        if self.rhat_threshold <= 1.0:
            raise ValueError("rhat_threshold must be > 1")
        if self.freeze_hyperparams is not None:
            a0, b0 = self.freeze_hyperparams
            if not (a0 > 0 and b0 > 0):
                raise ValueError("frozen hyperparameters must be positive")


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

    @property
    def n_samples(self) -> int:
        return self.alpha.size

    def pooled_hyperparams(self) -> tuple[np.ndarray, np.ndarray]:
        """All (alpha, beta) draws flattened across chains."""
        return self.alpha.reshape(-1), self.beta.reshape(-1)

    def rhat_flags(self, threshold: float | None = None) -> dict[str, float]:
        """Parameters whose R-hat meets or exceeds the threshold
        (degenerate chains report inf and are always flagged)."""
        thr = self.config.rhat_threshold if threshold is None else threshold
        return {k: v for k, v in self.diagnostics.items() if v >= thr}


def alpha_log_conditional(alpha: float, beta: float, n: int, sum_log_lam: float,
                          spec: HyperPriorSpec) -> float:
    """log p(alpha | beta, lambdas) up to a constant, from the sufficient
    statistics n = number of sites and sum_log_lam = sum of log lambda_j."""
    if alpha <= 0:
        return -math.inf
    return (
        n * (alpha * math.log(beta) - float(gammaln(alpha)))
        + (alpha - 1.0) * sum_log_lam
        - spec.alpha_rate * alpha
    )


def beta_log_conditional(beta: float, alpha: float, n: int, sum_lam: float,
                         spec: HyperPriorSpec) -> float:
    """log p(beta | alpha, lambdas) up to a constant, from the sufficient
    statistics n = number of sites and sum_lam = sum of lambda_j."""
    if beta <= 0:
        return -math.inf
    return n * alpha * math.log(beta) - beta * sum_lam - spec.beta_rate * beta


def _draw_lambdas(alpha: float, beta: float, totals: np.ndarray,
                  sizes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    draws = rng.standard_gamma(alpha + totals)
    draws *= 1.0 / (beta + sizes)
    return np.maximum(draws, _RATE_FLOOR, out=draws)


def _mh_log_scale(current: float, step: float, log_target, rng) -> tuple[float, bool]:
    """One random-walk Metropolis step on the log of a positive scalar."""
    log_cur = math.log(current)
    log_prop = log_cur + step * rng.standard_normal()
    proposed = math.exp(log_prop)
    g_cur = log_target(current)
    g_prop = log_target(proposed)
    if math.isnan(g_cur) or math.isnan(g_prop):
        raise NumericalError(
            f"non-finite log conditional at current={current!r}, proposed={proposed!r}"
        )
    # Jacobian of the log transform: + log_prop - log_cur
    log_ratio = g_prop - g_cur + log_prop - log_cur
    if rng.random() < math.exp(min(log_ratio, 0.0)):
        return proposed, True
    return current, False


def _adapted_step(step: float, rate: float, target: float) -> float:
    """Scale a step size by exp(rate - target); a rate at target is a fixed point."""
    return step * math.exp(rate - target)


def _run_chain(spec: HyperPriorSpec, config: McmcConfig, totals: np.ndarray,
               sizes: np.ndarray, chain_index: int):
    rng = seeding.rng(config.seed, chain_index)
    frozen = config.freeze_hyperparams is not None
    if frozen:
        alpha, beta = config.freeze_hyperparams
    else:
        # overdispersed starts straight from the hyperprior
        alpha = rng.exponential(scale=1.0 / spec.alpha_rate)
        beta = rng.exponential(scale=1.0 / spec.beta_rate)
        alpha, beta = max(alpha, 1e-8), max(beta, 1e-8)
    step_alpha = step_beta = _INITIAL_STEP
    # accepts among the current adaptation window's _ADAPT_WINDOW proposals
    alpha_accepts = beta_accepts = 0

    n_sites = totals.size
    alpha_out = np.empty(config.n_draws)
    beta_out = np.empty(config.n_draws)
    lambda_out = np.empty((config.n_draws, n_sites))

    for it in range(config.n_warmup + config.n_draws):
        lam = _draw_lambdas(alpha, beta, totals, sizes, rng)
        if not frozen:
            sum_log_lam = float(np.log(lam).sum())
            sum_lam = float(lam.sum())
            alpha, accepted = _mh_log_scale(
                alpha, step_alpha,
                lambda a: alpha_log_conditional(a, beta, n_sites, sum_log_lam, spec), rng)
            alpha_accepts += accepted
            beta, accepted = _mh_log_scale(
                beta, step_beta,
                lambda b: beta_log_conditional(b, alpha, n_sites, sum_lam, spec), rng)
            beta_accepts += accepted
            if it < config.n_warmup and (it + 1) % _ADAPT_WINDOW == 0:
                target = config.adapt_target_accept
                step_alpha = _adapted_step(step_alpha, alpha_accepts / _ADAPT_WINDOW, target)
                step_beta = _adapted_step(step_beta, beta_accepts / _ADAPT_WINDOW, target)
                alpha_accepts = beta_accepts = 0
        k = it - config.n_warmup
        if k >= 0:
            alpha_out[k] = alpha
            beta_out[k] = beta
            lambda_out[k] = lam
    return alpha_out, beta_out, lambda_out


def run_mcmc(dataset: Dataset, spec: HyperPriorSpec, config: McmcConfig) -> PosteriorDraws:
    """Fit the hierarchical model and return draws with diagnostics.

    In ``no_data`` mode the likelihood contribution is suppressed and the
    chain samples the prior; with ``freeze_hyperparams`` set, (alpha, beta)
    stay fixed and only the conjugate site-rate draws move.
    """
    totals = dataset.site_totals().astype(np.float64)
    sizes = dataset.site_sizes().astype(np.float64)
    if config.no_data:
        totals = np.zeros_like(totals)
        sizes = np.zeros_like(sizes)

    alpha = np.empty((config.n_chains, config.n_draws))
    beta = np.empty((config.n_chains, config.n_draws))
    lambdas = np.empty((config.n_chains, config.n_draws, totals.size))
    for c in range(config.n_chains):
        alpha[c], beta[c], lambdas[c] = _run_chain(spec, config, totals, sizes, c)

    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()
            and np.isfinite(lambdas).all()):
        raise NumericalError("non-finite draw in posterior output")

    diagnostics: dict[str, float] = {}
    if config.n_chains >= 2 and config.n_draws >= 4:
        if config.freeze_hyperparams is None:
            diagnostics["alpha"] = compute_rhat(alpha)
            diagnostics["beta"] = compute_rhat(beta)
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
    """``compute_rhat`` of each of P parameters at once, from chains of
    shape (P, n_chains, n_draws), bit for bit.

    Every split half-chain becomes one row of a C-contiguous 2-D array and
    each reduction runs along a 2-D array's rows, so every parameter sums in
    the order ``compute_rhat`` does; a 3-D array reduced along its last axis
    sums in another order and changes the last bits.
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
    n_chains, n_draws = arr.shape
    if n_chains < 2 or n_draws < 4:
        raise ValueError("need at least 2 chains and 4 draws per chain")

    half = n_draws // 2
    split = np.vstack([arr[:, :half], arr[:, n_draws - half:]])

    within = split.var(axis=1, ddof=1).mean()
    if within == 0.0:
        return math.inf
    between = half * split.mean(axis=1).var(ddof=1)
    var_hat = (half - 1) / half * within + between / half
    return float(np.sqrt(var_hat / within))


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

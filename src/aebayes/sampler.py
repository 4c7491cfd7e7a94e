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
"""

from __future__ import annotations

import csv
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
    draws = rng.gamma(shape=alpha + totals, scale=1.0 / (beta + sizes))
    return np.maximum(draws, _RATE_FLOOR)


def _mh_log_scale(current: float, step: float, log_target, rng) -> tuple[float, bool]:
    """One random-walk Metropolis step on the log of a positive scalar."""
    log_cur = math.log(current)
    log_prop = log_cur + step * rng.normal()
    proposed = math.exp(log_prop)
    g_cur = log_target(current)
    g_prop = log_target(proposed)
    if math.isnan(g_cur) or math.isnan(g_prop):
        raise NumericalError(
            f"non-finite log conditional at current={current!r}, proposed={proposed!r}"
        )
    # Jacobian of the log transform: + log_prop - log_cur
    log_ratio = g_prop - g_cur + log_prop - log_cur
    if rng.uniform() < math.exp(min(log_ratio, 0.0)):
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
        for j, site_id in enumerate(dataset.site_ids):
            diagnostics[f"lambda[{site_id}]"] = compute_rhat(lambdas[:, :, j])

    return PosteriorDraws(
        alpha=alpha, beta=beta, lambdas=lambdas,
        site_ids=dataset.site_ids, config=config, diagnostics=diagnostics,
    )


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
    """Dump draws as columnar delimited text: chain, draw, parameter, value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["chain", "draw", "parameter", "value"])
        n_chains, n_draws = draws.alpha.shape
        for c in range(n_chains):
            for d in range(n_draws):
                if include_hyperparams:
                    writer.writerow([c, d, "alpha", repr(float(draws.alpha[c, d]))])
                    writer.writerow([c, d, "beta", repr(float(draws.beta[c, d]))])
                for j, site_id in enumerate(draws.site_ids):
                    writer.writerow(
                        [c, d, f"lambda[{site_id}]", repr(float(draws.lambdas[c, d, j]))]
                    )

"""Metropolis-within-Gibbs sampler for the hierarchical Poisson-Gamma model.

Site rates are conjugate and get exact Gibbs draws; the hyperparameters
(alpha, beta) move by adaptive Gaussian random-walk Metropolis on the log
scale, with the log-transform Jacobian in the acceptance ratio.  Each chain
owns an RNG stream derived from (seed, chain_index), so results are
bit-reproducible and independent of scheduling.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammaln

from . import seeding
from .data import Dataset
from .model import HyperParams, HyperPriorSpec

# Gamma draws with tiny shape can underflow to exactly 0.0, which the log
# densities cannot absorb; rates are floored at this positive value.
_RATE_FLOOR = 1e-300

_ADAPT_WINDOW = 50
_ADAPT_KAPPA = 1.0
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


@dataclass
class ChainState:
    """Mutable working state of a single chain."""

    alpha: float
    beta: float
    lambdas: np.ndarray
    step_alpha: float = _INITIAL_STEP
    step_beta: float = _INITIAL_STEP
    alpha_accepts: int = 0
    alpha_proposals: int = 0
    beta_accepts: int = 0
    beta_proposals: int = 0


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


def alpha_log_conditional(alpha: float, beta: float, lambdas: np.ndarray,
                          spec: HyperPriorSpec) -> float:
    """log p(alpha | beta, lambdas) up to a constant."""
    if alpha <= 0:
        return -math.inf
    n = lambdas.size
    sum_log_lam = float(np.log(lambdas).sum()) if n else 0.0
    return (
        n * (alpha * math.log(beta) - float(gammaln(alpha)))
        + (alpha - 1.0) * sum_log_lam
        - spec.alpha_rate * alpha
    )


def beta_log_conditional(beta: float, alpha: float, lambdas: np.ndarray,
                         spec: HyperPriorSpec) -> float:
    """log p(beta | alpha, lambdas) up to a constant."""
    if beta <= 0:
        return -math.inf
    n = lambdas.size
    sum_lam = float(lambdas.sum()) if n else 0.0
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


def mh_update_hyperparams(state: ChainState, spec: HyperPriorSpec,
                          rng: np.random.Generator) -> ChainState:
    """Update alpha then beta by log-scale random-walk Metropolis."""
    lam = state.lambdas
    alpha, a_acc = _mh_log_scale(
        state.alpha, state.step_alpha,
        lambda a: alpha_log_conditional(a, state.beta, lam, spec), rng,
    )
    beta, b_acc = _mh_log_scale(
        state.beta, state.step_beta,
        lambda b: beta_log_conditional(b, alpha, lam, spec), rng,
    )
    return replace(
        state,
        alpha=alpha,
        beta=beta,
        alpha_accepts=state.alpha_accepts + a_acc,
        alpha_proposals=state.alpha_proposals + 1,
        beta_accepts=state.beta_accepts + b_acc,
        beta_proposals=state.beta_proposals + 1,
    )


def adapt_step_sizes(state: ChainState, alpha_accept_rate: float,
                     beta_accept_rate: float, target: float = 0.44,
                     kappa: float = _ADAPT_KAPPA) -> ChainState:
    """Scale each step size by exp(kappa * (accept_rate - target)) and
    reset the window counters.  Warmup only; a rate at target is a fixed point."""
    return replace(
        state,
        step_alpha=state.step_alpha * math.exp(kappa * (alpha_accept_rate - target)),
        step_beta=state.step_beta * math.exp(kappa * (beta_accept_rate - target)),
        alpha_accepts=0,
        alpha_proposals=0,
        beta_accepts=0,
        beta_proposals=0,
    )


def _init_state(spec: HyperPriorSpec, config: McmcConfig, totals: np.ndarray,
                sizes: np.ndarray, rng: np.random.Generator) -> ChainState:
    if config.freeze_hyperparams is not None:
        alpha, beta = config.freeze_hyperparams
    else:
        # overdispersed starts straight from the hyperprior
        alpha = rng.exponential(scale=1.0 / spec.alpha_rate)
        beta = rng.exponential(scale=1.0 / spec.beta_rate)
        alpha = max(alpha, 1e-8)
        beta = max(beta, 1e-8)
    with np.errstate(divide="ignore", invalid="ignore"):
        means = np.where(sizes > 0, totals / np.maximum(sizes, 1.0), 0.0)
    lambdas = means + 0.5  # +0.5 keeps zero-count sites off the boundary
    return ChainState(alpha=alpha, beta=beta, lambdas=lambdas)


def _run_chain(spec: HyperPriorSpec, config: McmcConfig, totals: np.ndarray,
               sizes: np.ndarray, chain_index: int):
    rng = seeding.rng(config.seed, chain_index)
    state = _init_state(spec, config, totals, sizes, rng)
    frozen = config.freeze_hyperparams is not None

    n_sites = totals.size
    alpha_out = np.empty(config.n_draws)
    beta_out = np.empty(config.n_draws)
    lambda_out = np.empty((config.n_draws, n_sites))

    for it in range(config.n_warmup + config.n_draws):
        warmup = it < config.n_warmup
        state = replace(state, lambdas=_draw_lambdas(state.alpha, state.beta,
                                                     totals, sizes, rng))
        if not frozen:
            state = mh_update_hyperparams(state, spec, rng)
            if warmup and (it + 1) % _ADAPT_WINDOW == 0:
                state = adapt_step_sizes(
                    state,
                    state.alpha_accepts / max(state.alpha_proposals, 1),
                    state.beta_accepts / max(state.beta_proposals, 1),
                    target=config.adapt_target_accept,
                )
        if not warmup:
            k = it - config.n_warmup
            alpha_out[k] = state.alpha
            beta_out[k] = state.beta
            lambda_out[k] = state.lambdas
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


def point_mass_draws(alpha: float, beta: float, n_samples: int,
                     site_ids: tuple[str, ...] = ()) -> PosteriorDraws:
    """Degenerate PosteriorDraws fixed at one (alpha, beta) point.

    Used by predictive-density oracles that need a posterior with known
    closed-form predictive distribution.
    """
    hp = HyperParams(alpha, beta)  # validates positivity
    config = McmcConfig(n_chains=1, n_warmup=1, n_draws=n_samples,
                        freeze_hyperparams=(hp.alpha, hp.beta))
    return PosteriorDraws(
        alpha=np.full((1, n_samples), alpha),
        beta=np.full((1, n_samples), beta),
        lambdas=np.empty((1, n_samples, 0)),
        site_ids=site_ids,
        config=config,
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

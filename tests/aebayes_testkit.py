"""Helpers shared by the test modules: synthetic datasets and an in-memory
dataset reader and writer, LLM conditions and fixture transports, a
point-mass posterior for closed-form oracles, the Monte Carlo LPD that the
closed form is checked against, a quadrature oracle for the exact posterior
with the moment gate built on it, and a reference draw writer."""

from __future__ import annotations

import csv
import io
import math
import os
import sys
from pathlib import Path

import numpy as np
from scipy.special import gammaln, logsumexp

from aebayes.data import HEADER, Dataset, _parse_rows
from aebayes.elicitation import (ElicitationConfig, ElicitationRecord, FixtureTransport,
                                 PromptStrategy)
from aebayes.model import HyperPriorSpec
from aebayes.pipeline import CvCondition
from aebayes.sampler import McmcConfig, PosteriorDraws


def make_rows(site_sizes: list[int], seed: int = 0,
              mean_rate: float = 3.0) -> list[tuple[str, str, int]]:
    """Synthetic ``(site_id, patient_id, ae_count)`` rows with the given site
    sizes and Poisson counts."""
    rng = np.random.default_rng(seed)
    rows = []
    for j, n in enumerate(site_sizes):
        lam = rng.gamma(2.0, mean_rate / 2.0)
        for _ in range(n):
            rows.append((f"site{j:03d}", f"pat{len(rows):04d}", int(rng.poisson(lam))))
    return rows


def make_dataset(site_sizes: list[int], seed: int = 0,
                 mean_rate: float = 3.0) -> Dataset:
    """Synthetic dataset with the given site sizes and Poisson counts."""
    return Dataset.from_rows(make_rows(site_sizes, seed, mean_rate))


def loads_dataset(text: str, source: str = "<string>") -> Dataset:
    """Parse a dataset from an in-memory string (same validation as load_dataset)."""
    return _parse_rows(io.StringIO(text, newline=""), source=source)


def write_dataset(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write a dataset back to the documented format (load ∘ write is identity)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for patient_id, j, count in zip(dataset.patient_ids, dataset.site_of,
                                        dataset.ae_counts):
            writer.writerow([dataset.site_ids[j], patient_id, count])


# enough sites in every stratum for 5 folds and a 70:30 split
MIXED_SITE_SIZES = [1, 2, 2, 1, 2, 3, 4, 3, 4, 3, 5, 6, 8, 5, 7,
                    2, 1, 3, 4, 5, 6, 2, 3, 4, 5, 1, 2, 3, 4, 6]


def llm_condition(model: str = "m1", strategy: str = "blind",
                  temperature: float = 1.0, **settings) -> CvCondition:
    """An LLM condition whose batch retries without waiting; ``settings``
    are further ``ElicitationConfig`` fields, such as ``n_queries``."""
    return CvCondition(strategy=PromptStrategy(strategy), elicit=ElicitationConfig(
        model_id=model, temperature=temperature, backoff_base=0.001, **settings))


def transport_from(lines) -> FixtureTransport:
    """Transport replaying the given fixture lines, as ``from_path`` reads
    them from a file."""
    return FixtureTransport(ElicitationRecord.from_json_dict(line) for line in lines)


def fixture_transport(responses: list[str], model: str, strategy: str,
                      temperature: float) -> FixtureTransport:
    """Transport replaying the given bodies for one (model, strategy, T)."""
    return transport_from(
        {"model": model, "strategy": strategy, "temperature": temperature,
         "response": body}
        for body in responses)


def point_mass_draws(alpha: float, beta: float, n_samples: int,
                     site_ids: tuple[str, ...] = ()) -> PosteriorDraws:
    """Degenerate PosteriorDraws fixed at one (alpha, beta) point.

    Its predictive distribution for a new site is the closed-form negative
    binomial, which the LPD oracles compare against.  Non-positive values
    raise ValueError through ``McmcConfig``.
    """
    McmcConfig(n_chains=1, n_warmup=1, n_draws=n_samples, freeze_hyperparams=(alpha, beta))
    return PosteriorDraws(
        alpha=np.full((1, n_samples), alpha),
        beta=np.full((1, n_samples), beta),
        lambdas=np.empty((1, n_samples, 0)),
        site_ids=site_ids,
    )


def poisson_logpmf(y, lam):
    """log Poisson(y; lam) = y*ln(lam) - lam - ln(y!), via log-gamma.

    Supports array broadcasting; counts up to the hundreds stay exact
    where a factorial would overflow.
    """
    y = np.asarray(y, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    return y * np.log(lam) - lam - gammaln(y + 1.0)


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


def lpd_patient(y_obs: int, draws: PosteriorDraws, rng: np.random.Generator) -> float:
    """Monte Carlo log predictive density of one observed count: one
    lambda_new per draw from ``rng``, the reference ``lpd_dataset``'s closed
    form is checked against."""
    if y_obs < 0:
        raise ValueError(f"observed count must be >= 0, got {y_obs}")
    alpha, beta = draws.pooled_hyperparams()
    n = alpha.size
    if n == 0:
        raise ValueError("posterior contains no draws")
    lam_new = np.maximum(rng.gamma(shape=alpha, scale=1.0 / beta), 1e-300)
    return log_sum_exp(poisson_logpmf(y_obs, lam_new)) - math.log(n)


def hyper_draws(alpha: np.ndarray, beta: np.ndarray) -> PosteriorDraws:
    """PosteriorDraws holding the given (alpha, beta) draws as one chain,
    with no site rates."""
    alpha = np.asarray(alpha, dtype=np.float64).reshape(1, -1)
    beta = np.asarray(beta, dtype=np.float64).reshape(1, -1)
    return PosteriorDraws(alpha=alpha, beta=beta, lambdas=np.empty((1, alpha.size, 0)),
                          site_ids=())


def _log_posterior(dataset: Dataset, spec: HyperPriorSpec):
    """log p(log alpha, log beta | data) up to a constant, as a function of
    the axes (u, v) of a grid in (log alpha, log beta).

    With the site rates integrated out, site j (event total t_j over n_j
    patients) contributes beta^alpha Gamma(alpha + t_j) /
    (Gamma(alpha) (beta + n_j)^(alpha + t_j)), and sites with equal
    (t_j, n_j) share that factor.  The grid is uniform in (log alpha,
    log beta), so each cell carries the Jacobian alpha * beta."""
    pairs, mult = np.unique(np.stack([dataset.site_totals(), dataset.site_sizes()]),
                            axis=1, return_counts=True)
    t, n = (row[:, None, None].astype(np.float64) for row in pairs)
    c = mult[:, None, None].astype(np.float64)

    def log_post(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        a, b = np.exp(u)[:, None], np.exp(v)[None, :]
        sites = c * (a * np.log(b) + gammaln(a + t) - gammaln(a) - (a + t) * np.log(b + n))
        return (sites.sum(axis=0) - spec.alpha_rate * a - spec.beta_rate * b
                + u[:, None] + v[None, :])

    return log_post


def _log_nb(y: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """log NB(y; alpha, beta / (1 + beta)) on the grid of axes (u, v)."""
    a, b = np.exp(u)[:, None], np.exp(v)[None, :]
    return (gammaln(y + a) - gammaln(a) - gammaln(y + 1.0)
            + a * np.log(b) - (a + y) * np.log1p(b))


def _fine_axes(log_post, n_grid: int, counts=()) -> tuple[np.ndarray, np.ndarray]:
    """n_grid points on each axis of a box that holds the posterior's mass
    and, for each y in ``counts``, the mass of its predictive integrand, the
    posterior times NB(y; alpha, beta / (1 + beta)), which for a count far
    above the training rates lies where the posterior is far below its
    peak.  A coarse pass over [-30, 12]^2 finds where each lies within 40
    of its own peak, and the box reaches one coarse step beyond.  (A box of
    [-12, 8] cuts off about 1e-5 of the posterior of an all-zero training
    set, whose alpha reaches down to 0.)"""
    coarse = np.linspace(-30.0, 12.0, 211)
    lp = log_post(coarse, coarse)
    held = lp > lp.max() - 40.0
    for y in counts:
        integrand = lp + _log_nb(y, coarse, coarse)
        held |= integrand > integrand.max() - 40.0
    iu, iv = np.nonzero(held)
    step = coarse[1] - coarse[0]
    return (np.linspace(coarse[iu.min()] - step, coarse[iu.max()] + step, n_grid),
            np.linspace(coarse[iv.min()] - step, coarse[iv.max()] + step, n_grid))


def _log_mass(lp: np.ndarray) -> float:
    """logsumexp(lp) over a grid; a grid that leaves more than 1e-6 of the
    mass on its edge raises AssertionError."""
    total = logsumexp(lp)
    weight = np.exp(lp - total)
    edge = weight[[0, -1], :].sum() + weight[1:-1, [0, -1]].sum()
    assert edge < 1e-6, f"quadrature grid leaves {edge:.2g} of the mass on its edge"
    return total


def quadrature_posterior(dataset: Dataset, spec: HyperPriorSpec,
                         n_grid: int = 401) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact posterior p(alpha, beta | data) on a grid: ``(alpha, beta,
    weight)`` arrays of one shape, the weights summing to 1, over the box
    that holds the posterior's mass (``_fine_axes``)."""
    log_post = _log_posterior(dataset, spec)
    u, v = _fine_axes(log_post, n_grid)
    lp = log_post(u, v)
    weight = np.exp(lp - _log_mass(lp))
    alpha, beta = np.meshgrid(np.exp(u), np.exp(v), indexing="ij")
    return alpha, beta, weight


def moment_z(draws: PosteriorDraws, dataset: Dataset,
             spec: HyperPriorSpec) -> dict[str, tuple[float, float, float]]:
    """``{"alpha": (z_mean, z_sd, ess), "beta": ...}``: how far the draws'
    mean and SD lie from the exact posterior's, in Monte Carlo SEs.

    The mean's SE is sigma / sqrt(ESS) with ESS the bulk ESS of the draws.
    The SD is a function of the mean of (x - mu)^2, so its SE is the delta
    method's sqrt((m4 - sigma^4) / ESS2) / (2 sigma), with ESS2 the bulk ESS
    of (x - mu)^2; mu, sigma and the fourth central moment m4 come from
    ``quadrature_posterior``.
    """
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)  # the benchmark's modules are scripts
    from diagnostics import ess_bulk

    alpha, beta, weight = quadrature_posterior(dataset, spec)
    out = {}
    for name, grid, x in (("alpha", alpha, draws.alpha), ("beta", beta, draws.beta)):
        mu = float((grid * weight).sum())
        sigma = math.sqrt(((grid - mu) ** 2 * weight).sum())
        m4 = float(((grid - mu) ** 4 * weight).sum())
        ess = ess_bulk(x)
        z_mean = (x.mean() - mu) / (sigma / math.sqrt(ess))
        se_sd = math.sqrt((m4 - sigma ** 4) / ess_bulk((x - mu) ** 2)) / (2 * sigma)
        out[name] = (z_mean, (x.std(ddof=1) - sigma) / se_sd, ess)
    return out


def exact_lpd(counts, dataset: Dataset, spec: HyperPriorSpec,
              n_grid: int = 401) -> np.ndarray:
    """log of the exact posterior predictive of a new site's count,
    log E[NB(y; alpha, beta / (1 + beta)) | data], for each y in
    ``counts``, by quadrature over a box that holds the posterior's mass
    and each count's predictive integrand (``_fine_axes``)."""
    counts = np.asarray(counts, dtype=np.float64)
    log_post = _log_posterior(dataset, spec)
    u, v = _fine_axes(log_post, n_grid, counts)
    lp = log_post(u, v)
    lp -= _log_mass(lp)
    return np.array([_log_mass(lp + _log_nb(y, u, v)) for y in counts])


def reference_export_draws(draws: PosteriorDraws, path,
                           include_hyperparams: bool = True) -> None:
    """``export_draws`` written the plain way, one ``csv.writer`` row per
    value: the bytes the fast writer must reproduce."""
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

from __future__ import annotations

import hashlib
import math
import os
import re
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as sps
from scipy.special import gammaln
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aebayes.data import Dataset
from aebayes.model import HyperPriorSpec
from aebayes import evaluation, sampler
from aebayes.sampler import (
    McmcConfig,
    _LogTarget,
    _site_columns,
    compute_rhat,
    export_draws,
    log_rising,
    run_mcmc,
)
from aebayes_testkit import (loads_dataset, make_dataset, make_rows, moment_z,
                             point_mass_draws, reference_export_draws)

ONE_SITE = loads_dataset("site_id,patient_id,ae_count\nA,p1,3\nA,p2,2\nA,p3,2\n")
TWO_SITES = loads_dataset(
    "site_id,patient_id,ae_count\nA,p1,3\nA,p2,2\nA,p3,2\nB,p4,0\nB,p5,1\n")
# more sites than one R-hat block (64), the last one with no events
MANY_SITES = Dataset.from_rows(make_rows([1, 2, 3] * 23, seed=4) + [("empty", "q1", 0)])


def test_config_validation():
    with pytest.raises(ValueError):
        McmcConfig(n_chains=0)
    with pytest.raises(ValueError):
        McmcConfig(freeze_hyperparams=(0.0, 1.0))
    with pytest.raises(ValueError):
        McmcConfig(freeze_hyperparams=(math.inf, 1.0))
    with pytest.raises(ValueError):
        McmcConfig(freeze_hyperparams=(1.0, math.nan))


def test_config_defaults():
    cfg = McmcConfig()
    assert (cfg.n_chains, cfg.n_warmup, cfg.n_draws) == (4, 1000, 1000)
    assert sampler._TARGET_ACCEPT == 0.44
    assert sampler.RHAT_THRESHOLD == 1.1


def test_freeze_mode_conjugate_moments():
    """Every site rate follows its own Gamma(alpha + t_j, beta + n_j)."""
    cfg = McmcConfig(n_warmup=10, seed=3, freeze_hyperparams=(2.0, 0.5))
    draws = run_mcmc(TWO_SITES, HyperPriorSpec(0.1, 0.1), cfg)
    # site A holds 7 events over 3 patients, site B 1 over 2
    for j, (shape, rate) in enumerate([(2 + 7, 0.5 + 3), (2 + 1, 0.5 + 2)]):
        lam = draws.lambdas[:, :, j].ravel()
        assert lam.size == 4000
        # four standard errors of each estimator; Gamma excess kurtosis is 6/shape
        assert lam.mean() == pytest.approx(shape / rate,
                                           rel=4 / math.sqrt(shape * lam.size))
        assert lam.var(ddof=1) == pytest.approx(
            shape / rate**2, rel=4 * math.sqrt((2 + 6 / shape) / lam.size))
    # hyperparameters pinned exactly
    assert (draws.alpha == 2.0).all()
    assert (draws.beta == 0.5).all()
    assert "alpha" not in draws.diagnostics


def test_freeze_mode_conjugate_distribution():
    cfg = McmcConfig(n_chains=2, n_warmup=5, n_draws=2000, seed=5,
                     freeze_hyperparams=(2.0, 0.5))
    draws = run_mcmc(TWO_SITES, HyperPriorSpec(0.1, 0.1), cfg)
    # per site: Gamma(2 + total, 0.5 + n), checked distribution-wise
    for j, (total, n) in enumerate([(7, 3), (1, 2)]):
        lam = draws.lambdas[:, :, j].ravel()[::5]
        stat = sps.kstest(lam, sps.gamma(a=2.0 + total, scale=1 / (0.5 + n)).cdf)
        assert stat.pvalue > 0.005, f"site {j}: KS p={stat.pvalue}"


def test_no_data_frozen_samples_rate_prior():
    cfg = McmcConfig(n_chains=2, n_warmup=5, n_draws=2000, seed=8,
                     freeze_hyperparams=(2.0, 0.5), no_data=True)
    draws = run_mcmc(ONE_SITE, HyperPriorSpec(0.1, 0.1), cfg)
    lam = draws.lambdas[:, :, 0].ravel()[::5]
    stat = sps.kstest(lam, sps.gamma(a=2.0, scale=1 / 0.5).cdf)
    assert stat.pvalue > 0.005


def test_no_data_recovers_hyperprior_marginals():
    """Without data the chain must sample the prior joint, so the alpha
    and beta marginals are the exponential hyperpriors."""
    spec = HyperPriorSpec(1.0, 1.0)
    cfg = McmcConfig(n_chains=4, n_warmup=1000, n_draws=2000, seed=2, no_data=True)
    draws = run_mcmc(ONE_SITE, spec, cfg)
    alpha = draws.alpha.ravel()[::20]
    beta = draws.beta.ravel()[::20]
    assert sps.kstest(alpha, sps.expon(scale=1.0).cdf).pvalue > 0.005
    assert sps.kstest(beta, sps.expon(scale=1.0).cdf).pvalue > 0.005


def test_determinism_same_seed():
    spec = HyperPriorSpec(0.1, 0.1)
    cfg = McmcConfig(n_chains=2, n_warmup=100, n_draws=100, seed=11)
    a = run_mcmc(TWO_SITES, spec, cfg)
    b = run_mcmc(TWO_SITES, spec, cfg)
    assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.lambdas, b.lambdas)
    c = run_mcmc(TWO_SITES, spec, McmcConfig(n_chains=2, n_warmup=100,
                                             n_draws=100, seed=12))
    assert not np.array_equal(a.alpha, c.alpha)


def test_draws_are_read_only_and_shaped():
    cfg = McmcConfig(n_chains=3, n_warmup=50, n_draws=40, seed=0)
    draws = run_mcmc(TWO_SITES, HyperPriorSpec(0.1, 0.1), cfg)
    assert draws.alpha.shape == (3, 40)
    assert draws.lambdas.shape == (3, 40, 2)
    assert draws.site_ids == ("A", "B")
    assert (draws.lambdas > 0).all() and (draws.alpha > 0).all()
    with pytest.raises(ValueError):
        draws.alpha[0, 0] = 1.0
    assert set(draws.diagnostics) == {"alpha", "beta", "lambda[A]", "lambda[B]"}


# sites with no events, repeated (total, size) pairs and a one-patient site
MARGINAL_SITES = loads_dataset(
    "site_id,patient_id,ae_count\n"
    "A,p1,3\nA,p2,0\nB,p3,2\nB,p4,1\nC,p5,0\nC,p6,0\nD,p7,0\nD,p8,0\n"
    "E,p9,0\nF,p10,7\nG,p11,1\nG,p12,0\nG,p13,4\nH,p14,0\n")


def site_marginal_logpdf(counts, alpha: float, beta: float) -> float:
    """log p(counts | alpha, beta) of one site, its rate integrated out, by
    the chain rule: each count is negative binomial given the ones before,
    NB(alpha + s, (beta + k) / (beta + k + 1)) after k counts summing to s."""
    total = 0.0
    for k, y in enumerate(counts):
        s = sum(counts[:k])
        total += sps.nbinom.logpmf(y, alpha + s, (beta + k) / (beta + k + 1))
    return total


def test_log_posterior_matches_site_marginals():
    """The sufficient-statistic target minus the brute-force sum over sites
    of the Gamma-Poisson marginal, plus the hyperprior and the log-scale
    Jacobian, is one constant at random (alpha, beta)."""
    spec = HyperPriorSpec(0.7, 1.3)
    ds = MARGINAL_SITES
    by_site = [[y for j, y in zip(ds.site_of, ds.ae_counts) if j == site]
               for site in range(ds.n_sites)]
    log_post = _LogTarget(ds.site_totals().astype(float), ds.site_sizes().astype(float))
    rates = (spec.alpha_rate, spec.beta_rate)
    x = np.random.default_rng(0).uniform(-2.5, 2.0, size=(8, 2))
    brute = np.array([
        sum(site_marginal_logpdf(counts, a, b) for counts in by_site)
        + sps.expon.logpdf(a, scale=1 / spec.alpha_rate)
        + sps.expon.logpdf(b, scale=1 / spec.beta_rate) + u + v
        for (u, v), (a, b) in zip(x, np.exp(x))])
    diffs = log_post(x, rates) - brute
    assert np.ptp(diffs) < 1e-9, diffs


def test_log_posterior_no_data_is_hyperprior():
    """Under ``no_data`` the target is the exponential hyperprior on the
    log scale, up to a constant."""
    spec = HyperPriorSpec(0.5, 2.0)
    log_post = _LogTarget(*_site_columns(TWO_SITES, McmcConfig(no_data=True)))
    rates = (spec.alpha_rate, spec.beta_rate)
    x = np.random.default_rng(1).uniform(-3.0, 2.0, size=(6, 2))
    a, b = np.exp(x).T
    expected = (sps.expon.logpdf(a, scale=1 / spec.alpha_rate)
                + sps.expon.logpdf(b, scale=1 / spec.beta_rate) + x.sum(axis=1))
    assert np.ptp(log_post(x, rates) - expected) < 1e-12


def test_log_rising_matches_gammaln():
    """lgamma(alpha + t) - lgamma(alpha) for alpha from 1e-3 to 1e3 and
    totals from 0 to 1e5, on both sides of B, agrees with scipy's gammaln
    to 1e-14 relative, beyond the oracle's own rounding of one ulp of each
    gammaln (at alpha = 1e3 and t = 1 that rounding alone is 1.4e-13 of
    the difference)."""
    bound = sampler._RISING_BOUND
    alpha = np.logspace(-3.0, 3.0, 61)
    totals = np.unique(np.concatenate([
        np.arange(40), np.arange(bound - 3, bound + 4),
        np.geomspace(300, 1e5, 30).round()])).astype(np.int64)

    def agrees(got, upper, lower):
        expected = upper - lower
        tol = 1e-14 * np.abs(expected) + np.finfo(float).eps * (np.abs(upper) + np.abs(lower))
        return got.shape == expected.shape and (np.abs(got - expected) <= tol).all()

    got = log_rising(alpha, totals)
    assert agrees(got, gammaln(alpha + totals[:, None]), gammaln(alpha))
    # the Stirling part alone, which the sum above B would swamp
    above = totals[totals >= bound, None].astype(np.float64)
    assert agrees(sampler._lgamma_above(alpha, above), gammaln(alpha + above),
                  gammaln(alpha + bound))
    # the counts need not be sorted or distinct
    np.testing.assert_array_equal(log_rising(alpha, totals[::-1])[::-1], got)
    assert log_rising(alpha, np.array([], dtype=np.int64)).shape == (0, alpha.size)


# a well-identified set plus one site of 10 patients with 10^4 events each
BIG_TOTAL = Dataset.from_rows(make_rows([4, 5, 6] * 12, seed=3)
                              + [("big", f"b{i}", 10 ** 4) for i in range(10)])


def test_large_total_keeps_terms_bounded():
    """A site total of 1e5 adds one Stirling row to the B rising-factorial
    rows, not 1e5 rows; the target still matches the gammaln form, and the
    fit passes the moment gate against the quadrature posterior."""
    spec = HyperPriorSpec(0.1, 0.1)
    totals, sizes = _site_columns(BIG_TOTAL, McmcConfig())
    assert totals.max() == 1e5
    log_post = _LogTarget(totals, sizes)
    rates = (spec.alpha_rate, spec.beta_rate)
    assert len(log_post.shifts) + len(log_post.tails) <= sampler._RISING_BOUND + 1
    x = np.random.default_rng(2).uniform(-3.0, 3.0, size=(8, 2))
    a, b = np.exp(x).T[:, :, None]
    by_site = (a * np.log(b) + gammaln(a + totals) - gammaln(a)
               - (a + totals) * np.log(b + sizes)).sum(axis=1)
    expected = by_site - spec.alpha_rate * a[:, 0] - spec.beta_rate * b[:, 0] + x.sum(axis=1)
    assert np.ptp(log_post(x, rates) - expected) < 1e-8
    draws = run_mcmc(BIG_TOTAL, spec, McmcConfig(seed=0))
    for param, (z_mean, z_sd, _) in moment_z(draws, BIG_TOTAL, spec).items():
        assert abs(z_mean) < 3 and abs(z_sd) < 3, (param, z_mean, z_sd)


# targets of one fit: many and few distinct totals and sizes, all counts
# zero, no_data, sites without patients (a Dataset built directly) and a
# total above B
TARGET_FITS = [
    (make_dataset([4, 5, 6] * 12, seed=3), HyperPriorSpec(0.1, 0.1), {}),
    (TWO_SITES, HyperPriorSpec(0.5, 2.0), {}),
    (Dataset.from_rows([(f"z{j}", f"q{j}_{i}", 0) for j in range(9) for i in range(1 + j % 3)]),
     HyperPriorSpec(0.1, 0.1), {}),
    (MANY_SITES, HyperPriorSpec(1.0, 1.0), {"no_data": True}),
    (Dataset(patient_ids=("p1", "p2", "p3"), site_ids=("A", "none", "B", "nil"),
             site_of=(0, 0, 2), ae_counts=(3, 1, 0)), HyperPriorSpec(0.2, 0.3), {}),
    (MARGINAL_SITES, HyperPriorSpec(0.7, 1.3), {}),
    (BIG_TOTAL, HyperPriorSpec(0.1, 0.1), {}),
]


def test_log_target_rows_do_not_depend_on_batch():
    """A row's log target has the same bits alone (one row, which numpy
    would sum pairwise) as among the other chains' rows, at alpha and beta
    of 0 and 1e300 too."""
    x = np.vstack([np.random.default_rng(5).uniform(-4.0, 3.0, size=(3, 2)),
                   [[-800.0, 0.0], [0.0, -800.0], [690.0, 0.5], [0.5, 690.0]]])
    with np.errstate(all="ignore"):  # the extreme points overflow to inf or nan
        for ds, spec, kw in TARGET_FITS:
            log_post = _LogTarget(*_site_columns(ds, McmcConfig(**kw)))
            rates = (spec.alpha_rate, spec.beta_rate)
            together = log_post(x, rates)
            for r in range(len(x)):
                np.testing.assert_array_equal(log_post(x[r:r + 1], rates), together[r:r + 1])


def test_log_target_grid_matches_points():
    """The separable grid form, completed for a prior by the LPD's grid,
    equals the target at each grid point, to rounding, on every fit
    above."""
    box = ((-4.0, 3.0), (-5.0, 4.0))
    u, v = (np.linspace(lo, hi, 9) for lo, hi in box)
    points = np.stack(np.meshgrid(u, v, indexing="ij"), axis=-1).reshape(-1, 2)
    for ds, spec, kw in TARGET_FITS:
        log_post = _LogTarget(*_site_columns(ds, McmcConfig(**kw)))
        rates = (spec.alpha_rate, spec.beta_rate)
        expected = log_post(points, rates).reshape(u.size, v.size)
        grid = evaluation._Grid(log_post, np.zeros(1, np.int64), box, 9).posterior(rates)
        np.testing.assert_allclose(grid, expected, rtol=1e-12, atol=1e-9)


def test_chains_do_not_depend_on_chain_count():
    """Each chain draws from its own stream, a fixed count per iteration, so
    the first two chains of a 4-chain fit are those of a 2-chain fit."""
    spec = HyperPriorSpec(0.1, 0.1)
    two = run_mcmc(MANY_SITES, spec, McmcConfig(n_chains=2, n_warmup=120, n_draws=30, seed=4))
    four = run_mcmc(MANY_SITES, spec, McmcConfig(n_chains=4, n_warmup=120, n_draws=30, seed=4))
    for name in ("alpha", "beta", "lambdas"):
        assert np.array_equal(getattr(four, name)[:2], getattr(two, name)), name


def acceptance_rate(draws) -> float:
    """Share of kept iterations that moved, over all chains."""
    return float((np.diff(draws.alpha, axis=1) != 0).mean())


def test_adaptation_tunes_step_to_target_acceptance(monkeypatch):
    """Warmup scales each chain's step towards _TARGET_ACCEPT, so the kept
    draws accept near the target, and a lower target accepts less."""
    data = make_dataset([4, 5, 6] * 12, seed=3)
    spec = HyperPriorSpec(0.1, 0.1)
    rates = {}
    for target in (0.2, 0.44, 0.7):
        monkeypatch.setattr(sampler, "_TARGET_ACCEPT", target)
        draws = run_mcmc(data, spec, McmcConfig(seed=1))
        rates[target] = acceptance_rate(draws)
    for target, rate in rates.items():
        assert rate == pytest.approx(target, abs=0.1), rates
    assert rates[0.2] < rates[0.44] < rates[0.7]


# a small well-identified set, and one where 36 of 40 sites have no events
MOMENT_SETS = {
    "well_identified": make_dataset([4, 5, 6] * 12, seed=3),
    "zero_heavy": Dataset.from_rows(
        [(f"z{j}", f"q{j}_{i}", 0) for j in range(36) for i in range(1 + j % 4)]
        + [(f"e{j}", f"r{j}_{i}", y) for j, counts in enumerate([[2, 0], [1], [0, 3, 1], [4]])
           for i, y in enumerate(counts)]),
}


@pytest.mark.parametrize("name", sorted(MOMENT_SETS))
def test_moments_match_quadrature(name):
    """The mean and SD of alpha and beta over 4 x (1000 + 1000) draws agree
    with the exact posterior by quadrature: |z| < 3 in Monte Carlo SEs from
    bulk ESS (see ``moment_z``)."""
    data, spec = MOMENT_SETS[name], HyperPriorSpec(0.1, 0.1)
    draws = run_mcmc(data, spec, McmcConfig(seed=0))
    z = moment_z(draws, data, spec)
    for param, (z_mean, z_sd, _) in z.items():
        assert abs(z_mean) < 3 and abs(z_sd) < 3, (param, z)


@pytest.mark.parametrize("name, rates", [("alpha", (1e308, 0.1)), ("beta", (0.1, 1e308))],
                         ids=["alpha", "beta"])
def test_extreme_rate_proposals_are_rejected_without_warnings(name, rates):
    """Under a rate of 1e308, a proposal overflows the rate's term or
    underflows its parameter to 0; it scores -inf or nan and is rejected,
    with no numpy warning (pytest makes one an error), and the parameter's
    stuck chains are flagged."""
    draws = run_mcmc(TWO_SITES, HyperPriorSpec(*rates), McmcConfig())
    assert name in draws.rhat_flags()


def test_rhat_iid_chains_near_one():
    rng = np.random.default_rng(0)
    chains = rng.normal(size=(4, 1000))
    r = compute_rhat(chains)
    assert 0.99 <= r <= 1.01


def test_rhat_detects_divergent_chains():
    rng = np.random.default_rng(1)
    chains = rng.normal(size=(4, 1000)) + 3.0 * np.arange(4)[:, None]
    assert compute_rhat(chains) > 1.5


def test_rhat_within_chain_trend_detected():
    # split halves: a strong trend inside each chain also inflates rhat
    t = np.linspace(0, 4, 500)
    chains = np.vstack([t, t, t, t]) + np.random.default_rng(2).normal(
        size=(4, 500)) * 0.1
    assert compute_rhat(chains) > 1.5


def test_rhat_degenerate_is_inf():
    assert compute_rhat(np.ones((4, 100))) == math.inf


def test_rhat_validation():
    with pytest.raises(ValueError):
        compute_rhat(np.ones(10))
    with pytest.raises(ValueError):
        compute_rhat(np.ones((1, 100)))
    with pytest.raises(ValueError):
        compute_rhat(np.ones((4, 3)))


@settings(max_examples=40, deadline=None)
@given(
    # dyadic lattice values keep the affine transform exact in floats
    chains=arrays(np.float64, (4, 50),
                  elements=st.integers(min_value=-400, max_value=400).map(
                      lambda i: i / 8.0)),
    scale=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    shift=st.integers(min_value=-800, max_value=800).map(lambda i: i / 8.0),
)
def test_rhat_affine_invariance(chains, scale, shift):
    r0 = compute_rhat(chains)
    r1 = compute_rhat(chains * scale + shift)
    if math.isinf(r0):
        assert math.isinf(r1)
    else:
        assert r1 == pytest.approx(r0, rel=1e-9)


def test_rhat_flags_threshold(monkeypatch):
    cfg = McmcConfig(n_chains=2, n_warmup=30, n_draws=30, seed=1)
    draws = run_mcmc(TWO_SITES, HyperPriorSpec(0.1, 0.1), cfg)
    monkeypatch.setattr(sampler, "RHAT_THRESHOLD", 0.5)
    flagged = draws.rhat_flags()  # everything
    assert set(flagged) == set(draws.diagnostics)
    monkeypatch.setattr(sampler, "RHAT_THRESHOLD", math.inf)
    assert draws.rhat_flags() == {}
    # a nan R-hat is not below any threshold, so it is always flagged
    stuck = replace(draws, diagnostics={**draws.diagnostics, "alpha": math.nan})
    assert list(stuck.rhat_flags()) == ["alpha"]


def test_point_mass_draws():
    draws = point_mass_draws(2.0, 1.0, 100)
    assert (draws.alpha == 2.0).all() and (draws.beta == 1.0).all()
    assert draws.alpha.shape == (1, 100)
    with pytest.raises(ValueError):
        point_mass_draws(-1.0, 1.0, 10)


def test_export_draws(tmp_path):
    cfg = McmcConfig(n_chains=2, n_warmup=10, n_draws=5, seed=0)
    draws = run_mcmc(TWO_SITES, HyperPriorSpec(0.1, 0.1), cfg)
    path = tmp_path / "draws.csv"
    export_draws(draws, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "chain,draw,parameter,value"
    assert len(lines) == 1 + 2 * 5 * (2 + 2)  # chains x draws x (hyper + sites)
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "alpha"]
    assert float(first[3]) == draws.alpha[0, 0]

    path2 = tmp_path / "frozen.csv"
    export_draws(draws, path2, include_hyperparams=False)
    body = path2.read_text()
    assert "alpha" not in body.split("\n", 1)[1]
    assert len(body.splitlines()) == 1 + 2 * 5 * 2


@pytest.mark.parametrize("include_hyperparams", [True, False], ids=["hyper", "sites_only"])
def test_export_draws_matches_csv_writer(tmp_path, monkeypatch, include_hyperparams):
    """The block writer produces the bytes of one csv.writer row per value,
    csv-escaping site ids, and keeps the bytes of ids holding a NUL, a
    non-ASCII letter (ÿ, U+00FF, whose UTF-8 C3 BF holds no 0xFF, the byte
    that carries a NUL), a four-byte character or a carriage return,
    whether the later rows are written in this process or in a forked
    child; 70 draws a chain span three blocks of rows."""
    data = loads_dataset('site_id,patient_id,ae_count\n"a,""b",p1,3\n"a,""b",p2,0\n'
                         'plain,p3,25\n"x\ny",p4,1\nn\0ul,p5,2\ncafé,p6,0\n"c\rr",p7,1\n'
                         'ÿ,p8,4\nk\U0001d538\0,p9,0\n')
    assert data.site_ids[-5:] == ("n\0ul", "café", "c\rr", "ÿ", "k\U0001d538\0")
    draws = run_mcmc(data, HyperPriorSpec(0.1, 0.1),
                     McmcConfig(n_chains=2, n_warmup=10, n_draws=70, seed=2))
    fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
    reference_export_draws(draws, ref, include_hyperparams=include_hyperparams)
    for can_fork in (False, True):
        monkeypatch.setattr(sampler, "_can_fork", lambda: can_fork)
        export_draws(draws, fast, include_hyperparams=include_hyperparams)
        assert fast.read_bytes() == ref.read_bytes()
    assert '\n0,0,"lambda[a,""b]",' in fast.read_text(encoding="utf-8")
    # no sites: with the hyperparameters left out, only the header remains
    no_sites = point_mass_draws(2.0, 1.0, 3)
    export_draws(no_sites, fast, include_hyperparams=include_hyperparams)
    reference_export_draws(no_sites, ref, include_hyperparams=include_hyperparams)
    assert fast.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_export_draws_rejects_values_that_are_not_positive_and_finite(tmp_path, monkeypatch,
                                                                       bad):
    """A value that is not positive and finite (which no kept draw is) has
    no layout in the float kernel: the export raises ValueError naming the
    parameter, chain and draw of the first one in the file's order, before
    it forks or opens the file."""
    monkeypatch.setattr(sampler, "_can_fork", lambda: True)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("the export forked"))
    draws = run_mcmc(TWO_SITES, HyperPriorSpec(0.1, 0.1),
                     McmcConfig(n_chains=2, n_warmup=10, n_draws=70, seed=3))
    alpha, lambdas = draws.alpha.copy(), draws.lambdas.copy()
    alpha[1, 40] = lambdas[1, 5, 1] = bad
    path = tmp_path / "draws.csv"
    path.write_text("kept")
    name = f"lambda[{TWO_SITES.site_ids[1]}]"
    for include_hyperparams in (True, False):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} at chain 1, draw 5 is "
                                             rf"{re.escape(repr(bad))}, not positive and finite$"):
            export_draws(replace(draws, alpha=alpha, lambdas=lambdas), path,
                         include_hyperparams=include_hyperparams)
        assert path.read_text() == "kept"
    with pytest.raises(ValueError, match=rf"^alpha at chain 1, draw 40 is {re.escape(repr(bad))},"):
        export_draws(replace(draws, alpha=alpha), path)
    assert path.read_text() == "kept"


@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("n_chains", [1, 3, 4])
def test_export_bytes_do_not_depend_on_processes(tmp_path, monkeypatch, n_chains, processes):
    """In one process or two, the export writes the reference's bytes, forks
    a child only when the rows fill more than one block, and leaves no part
    file.  70 rows or more overfill a block of 64; 300 sites make a block
    of 27 rows, which 30 rows or more overfill; one chain of 64 draws of two
    sites fills one block.  With no site and the hyperparameters left out
    only the header is written, in this process alone."""
    monkeypatch.setattr(sampler, "_can_fork", lambda: processes == 2)
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    draws = run_mcmc(TWO_SITES, HyperPriorSpec(0.1, 0.1),
                     McmcConfig(n_chains=n_chains, n_warmup=10, n_draws=70, seed=3))
    no_sites = replace(draws, lambdas=draws.lambdas[:, :, :0], site_ids=())
    wide = replace(draws, alpha=draws.alpha[:, :30], beta=draws.beta[:, :30],
                   lambdas=np.tile(draws.lambdas[:, :30], 150),
                   site_ids=tuple(f"s{j}" for j in range(300)))
    one_block = replace(draws, alpha=draws.alpha[:1, :64], beta=draws.beta[:1, :64],
                        lambdas=draws.lambdas[:1, :64])
    fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
    for case, include_hyperparams, n_shares in (
            (draws, True, processes), (draws, False, processes), (no_sites, True, processes),
            (no_sites, False, 1), (wide, True, processes), (wide, False, processes),
            (one_block, True, 1)):
        forks.clear()
        export_draws(case, fast, include_hyperparams=include_hyperparams)
        reference_export_draws(case, ref, include_hyperparams=include_hyperparams)
        assert fast.read_bytes() == ref.read_bytes()
        assert len(forks) == n_shares - 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fast.csv", "ref.csv"]


def test_export_forks_only_with_no_other_thread(tmp_path, monkeypatch):
    """The export forks on two or more usable CPUs, and not on one or while
    another Python thread runs.  When it forks, OpenBLAS has stopped its
    worker threads, so the process is single-threaded: the thread count
    that Python 3.12+ reads from /proc after a fork, to warn that the child
    may deadlock, is 1."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert sampler._can_fork()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not sampler._can_fork()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not sampler._can_fork()
    finally:
        release.set()
        thread.join()
    assert sampler._can_fork()

    stat = Path("/proc/self/stat")
    if not stat.exists():
        pytest.skip("no /proc thread count on this platform")
    np.ones((256, 256)) @ np.ones((256, 256))  # starts OpenBLAS's threads, if any
    counts, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            counts.append(int(stat.read_text().rsplit(")", 1)[1].split()[17]))
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    draws = run_mcmc(TWO_SITES, HyperPriorSpec(0.1, 0.1),
                     McmcConfig(n_chains=2, n_warmup=10, n_draws=70, seed=3))
    export_draws(draws, tmp_path / "draws.csv")
    assert counts == [1]


@pytest.mark.parametrize("n_draws, freeze", [(40, None), (41, None), (41, (1e-8, 1.0))],
                         ids=["even", "odd", "degenerate"])
def test_site_rhat_matches_compute_rhat(n_draws, freeze):
    """run_mcmc computes site R-hat in blocks of sites; each value must equal
    compute_rhat on that site's chains bit for bit.  With alpha frozen at
    1e-8 the rates of a site without events underflow to the floor in every
    draw, so its within-chain variance is zero and it reports inf."""
    cfg = McmcConfig(n_chains=3, n_warmup=20, n_draws=n_draws, seed=6,
                     freeze_hyperparams=freeze)
    draws = run_mcmc(MANY_SITES, HyperPriorSpec(0.1, 0.1), cfg)
    for j, site_id in enumerate(MANY_SITES.site_ids):
        assert draws.diagnostics[f"lambda[{site_id}]"] == compute_rhat(draws.lambdas[:, :, j])
    if freeze is not None:
        assert draws.diagnostics["lambda[empty]"] == math.inf


# sha256 of the alpha, beta and lambda draws (little-endian float64, in
# that order) of run_mcmc(TWO_SITES, HyperPriorSpec(0.1, 0.1), 2 chains,
# 60 warmup + 40 draws, seed 11); 60 warmup iterations adapt the step scale
# only, and "reshaped" runs 160, so two windows reshape the proposal
PINNED_DRAW_DIGESTS = {
    "default": ({}, "962883980adfcda1c70bd46147826de9a2af34dabd9ed0b0521acb9f9b776b87"),
    "frozen": ({"freeze_hyperparams": (2.0, 0.5)},
               "8617650be514ee1d26174e8346aeede317c2f066b589736bf1c0512f430a6c8d"),
    "no_data": ({"no_data": True},
                "2ee77d635037d0c2bf02e3426f112f4351f3f57a90d5e8b2696e6d7043137087"),
    "reshaped": ({"n_warmup": 160},
                 "bba28da8d200951c4a17f5f3f87388043484fdd434587103574459bfd0da65f8"),
}


@pytest.mark.parametrize("name", sorted(PINNED_DRAW_DIGESTS))
def test_draw_bytes_pinned(name):
    """The chain loop's output bytes must not drift: a refactor of the
    sampler has to reproduce every draw bit for bit."""
    overrides, expected = PINNED_DRAW_DIGESTS[name]
    cfg = McmcConfig(**{"n_chains": 2, "n_warmup": 60, "n_draws": 40, "seed": 11,
                        **overrides})
    draws = run_mcmc(TWO_SITES, HyperPriorSpec(0.1, 0.1), cfg)
    digest = hashlib.sha256()
    for arr in (draws.alpha, draws.beta, draws.lambdas):
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert digest.hexdigest() == expected, (
        f"{name} draws changed (numpy {np.__version__}; the digests were "
        "recorded with numpy 2.4.6 and depend on its Generator bitstream)")

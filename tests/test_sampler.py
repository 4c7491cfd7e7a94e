from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aebayes.data import Dataset
from aebayes.model import HyperPriorSpec
from aebayes.sampler import (
    McmcConfig,
    _adapted_step,
    _mh_log_scale,
    alpha_log_conditional,
    beta_log_conditional,
    compute_rhat,
    export_draws,
    run_mcmc,
)
from aebayes_testkit import (loads_dataset, make_rows, point_mass_draws,
                             reference_export_draws)

ONE_SITE = loads_dataset("site_id,patient_id,ae_count\nA,p1,3\nA,p2,2\nA,p3,2\n")
TWO_SITES = loads_dataset(
    "site_id,patient_id,ae_count\nA,p1,3\nA,p2,2\nA,p3,2\nB,p4,0\nB,p5,1\n")
# more sites than one R-hat block (64), the last one with no events
MANY_SITES = Dataset.from_rows(make_rows([1, 2, 3] * 23, seed=4) + [("empty", "q1", 0)])


def test_config_validation():
    with pytest.raises(ValueError):
        McmcConfig(n_chains=0)
    with pytest.raises(ValueError):
        McmcConfig(adapt_target_accept=1.5)
    with pytest.raises(ValueError):
        McmcConfig(rhat_threshold=0.9)
    with pytest.raises(ValueError):
        McmcConfig(freeze_hyperparams=(0.0, 1.0))


def test_config_defaults():
    cfg = McmcConfig()
    assert (cfg.n_chains, cfg.n_warmup, cfg.n_draws) == (4, 1000, 1000)
    assert cfg.adapt_target_accept == 0.44
    assert cfg.rhat_threshold == 1.1


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
    assert draws.n_samples == 120
    assert (draws.lambdas > 0).all() and (draws.alpha > 0).all()
    with pytest.raises(ValueError):
        draws.alpha[0, 0] = 1.0
    assert set(draws.diagnostics) == {"alpha", "beta", "lambda[A]", "lambda[B]"}


def test_hyperparam_conditionals_match_independent_densities():
    """Up to an additive constant, the conditionals must equal the scipy
    density sums they summarize."""
    spec = HyperPriorSpec(0.7, 1.3)
    lam = np.array([0.4, 2.2, 1.1])

    def full_alpha(a, b):
        return (sps.gamma.logpdf(lam, a=a, scale=1 / b).sum()
                + sps.expon.logpdf(a, scale=1 / spec.alpha_rate))

    def full_beta(b, a):
        return (sps.gamma.logpdf(lam, a=a, scale=1 / b).sum()
                + sps.expon.logpdf(b, scale=1 / spec.beta_rate))

    n, sum_log_lam, sum_lam = lam.size, float(np.log(lam).sum()), float(lam.sum())
    b0 = 1.5
    diffs = [alpha_log_conditional(a, b0, n, sum_log_lam, spec) - full_alpha(a, b0)
             for a in (0.5, 1.0, 3.0)]
    assert max(diffs) - min(diffs) < 1e-9  # constant in alpha
    a0 = 2.0
    diffs = [beta_log_conditional(b, a0, n, sum_lam, spec) - full_beta(b, a0)
             for b in (0.5, 1.0, 3.0)]
    assert max(diffs) - min(diffs) < 1e-9


def test_conditionals_support_zero_sites():
    spec = HyperPriorSpec(0.5, 0.5)
    # reduces to the hyperprior alone (up to a constant)
    d1 = alpha_log_conditional(2.0, 1.0, 0, 0.0, spec) - \
        alpha_log_conditional(1.0, 1.0, 0, 0.0, spec)
    assert d1 == pytest.approx(-spec.alpha_rate * 1.0)
    d2 = beta_log_conditional(2.0, 1.0, 0, 0.0, spec) - \
        beta_log_conditional(1.0, 1.0, 0, 0.0, spec)
    assert d2 == pytest.approx(-spec.beta_rate * 1.0)


def test_metropolis_ratio_identity():
    """Forward and backward log acceptance ratios must be antisymmetric
    and equal the independent density computation including the log-scale
    proposal Jacobian."""
    spec = HyperPriorSpec(0.7, 1.3)
    lam = np.array([0.4, 2.2, 1.1])
    b0 = 1.5
    a, a_new = 1.2, 2.6

    def target(x):
        return (sps.gamma.logpdf(lam, a=x, scale=1 / b0).sum()
                + sps.expon.logpdf(x, scale=1 / spec.alpha_rate))

    stats = (lam.size, float(np.log(lam).sum()))
    fwd = (alpha_log_conditional(a_new, b0, *stats, spec)
           - alpha_log_conditional(a, b0, *stats, spec)
           + math.log(a_new) - math.log(a))
    bwd = (alpha_log_conditional(a, b0, *stats, spec)
           - alpha_log_conditional(a_new, b0, *stats, spec)
           + math.log(a) - math.log(a_new))
    assert fwd == pytest.approx(-bwd, abs=1e-12)
    expected = target(a_new) - target(a) + math.log(a_new) - math.log(a)
    assert fwd == pytest.approx(expected, abs=1e-9)


def test_mh_update_zero_step_accepts_in_place():
    """A zero step proposes the current value, whose ratio is 1."""
    spec = HyperPriorSpec(1.0, 1.0)
    lam = np.array([1.0, 2.0])
    rng = np.random.default_rng(0)
    alpha, accepted = _mh_log_scale(
        2.0, 0.0,
        lambda a: alpha_log_conditional(a, 1.0, lam.size, float(np.log(lam).sum()), spec),
        rng)
    assert (alpha, accepted) == (2.0, True)
    beta, accepted = _mh_log_scale(
        1.0, 0.0, lambda b: beta_log_conditional(b, 2.0, lam.size, float(lam.sum()), spec),
        rng)
    assert (beta, accepted) == (1.0, True)


def test_mh_update_invariance_of_conditional():
    """Long MH runs on the alpha conditional alone must reproduce the
    density that a fine-grid normalization gives."""
    spec = HyperPriorSpec(1.0, 1.0)
    lam = np.array([1.5, 2.5, 0.8, 1.2])
    n, sum_log_lam = lam.size, float(np.log(lam).sum())

    def log_target(a):
        return alpha_log_conditional(a, 1.0, n, sum_log_lam, spec)

    rng = np.random.default_rng(4)
    alpha = 1.0
    samples = []
    for i in range(40_000):
        alpha, _ = _mh_log_scale(alpha, 0.5, log_target, rng)
        if i % 20 == 0:
            samples.append(alpha)
    samples = np.array(samples[100:])
    grid = np.linspace(1e-6, 30, 200_001)
    log_dens = np.array([log_target(a) for a in grid])
    dens = np.exp(log_dens - log_dens.max())
    dens /= np.trapezoid(dens, grid)
    mean = np.trapezoid(grid * dens, grid)
    sd = math.sqrt(np.trapezoid((grid - mean) ** 2 * dens, grid))
    assert samples.mean() == pytest.approx(mean, abs=0.15 * sd)


def test_adapt_step_sizes_contract():
    # exactly at target: unchanged
    assert _adapted_step(0.5, 0.44, 0.44) == 0.5
    # above target: grow; below: shrink — by exp(rate - target)
    up = _adapted_step(0.5, 0.9, 0.44)
    down = _adapted_step(0.5, 0.1, 0.44)
    assert up == pytest.approx(0.5 * math.exp(0.9 - 0.44))
    assert down == pytest.approx(0.5 * math.exp(0.1 - 0.44))
    assert up > 0.5 > down


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


def test_rhat_flags_threshold():
    cfg = McmcConfig(n_chains=2, n_warmup=30, n_draws=30, seed=1)
    draws = run_mcmc(TWO_SITES, HyperPriorSpec(0.1, 0.1), cfg)
    flagged = draws.rhat_flags(threshold=0.5)  # everything
    assert set(flagged) == set(draws.diagnostics)
    assert draws.rhat_flags(threshold=math.inf) == {}


def test_point_mass_draws():
    draws = point_mass_draws(2.0, 1.0, 100)
    assert (draws.alpha == 2.0).all() and (draws.beta == 1.0).all()
    assert draws.n_samples == 100
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
def test_export_draws_matches_csv_writer(tmp_path, include_hyperparams):
    """The block writer produces the bytes of one csv.writer row per value,
    csv-escaping site ids; 70 draws span two blocks of draws."""
    data = loads_dataset('site_id,patient_id,ae_count\n"a,""b",p1,3\n"a,""b",p2,0\n'
                         'plain,p3,25\n"x\ny",p4,1\n')
    draws = run_mcmc(data, HyperPriorSpec(0.1, 0.1),
                     McmcConfig(n_chains=2, n_warmup=10, n_draws=70, seed=2))
    fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
    export_draws(draws, fast, include_hyperparams=include_hyperparams)
    reference_export_draws(draws, ref, include_hyperparams=include_hyperparams)
    assert fast.read_bytes() == ref.read_bytes()
    assert '\n0,0,"lambda[a,""b]",' in fast.read_text(encoding="utf-8")
    # no sites: with the hyperparameters left out, only the header remains
    no_sites = point_mass_draws(2.0, 1.0, 3)
    export_draws(no_sites, fast, include_hyperparams=include_hyperparams)
    reference_export_draws(no_sites, ref, include_hyperparams=include_hyperparams)
    assert fast.read_bytes() == ref.read_bytes()


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
# 60 warmup + 40 draws, seed 11); the 60 warmup iterations include one
# step-size adaptation
PINNED_DRAW_DIGESTS = {
    "default": ({}, "93fde6e6fffa4a3caa03c63c2c9cf78992ec4f11ae5663593f7dccb18177dfee"),
    "frozen": ({"freeze_hyperparams": (2.0, 0.5)},
               "48992f144f7fba48d721e4ddbaf9d18c77b5da6c0cc91609855ef472217fe763"),
    "no_data": ({"no_data": True},
                "339696f668ccb8facc76a4e1442931fa777915a6101f2f30040a384aeaf94cc9"),
}


@pytest.mark.parametrize("name", sorted(PINNED_DRAW_DIGESTS))
def test_draw_bytes_pinned(name):
    """The chain loop's output bytes must not drift: a refactor of the
    sampler has to reproduce every draw bit for bit."""
    overrides, expected = PINNED_DRAW_DIGESTS[name]
    cfg = McmcConfig(n_chains=2, n_warmup=60, n_draws=40, seed=11, **overrides)
    draws = run_mcmc(TWO_SITES, HyperPriorSpec(0.1, 0.1), cfg)
    digest = hashlib.sha256()
    for arr in (draws.alpha, draws.beta, draws.lambdas):
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert digest.hexdigest() == expected, (
        f"{name} draws changed (numpy {np.__version__}; the digests were "
        "recorded with numpy 2.4.6 and depend on its Generator bitstream)")

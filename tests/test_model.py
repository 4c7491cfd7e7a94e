from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from aebayes.model import META_ANALYTICAL, HyperPriorSpec
from aebayes.sampler import _draw_lambdas
from aebayes_testkit import poisson_logpmf


def test_meta_analytical_baseline_value():
    assert META_ANALYTICAL == HyperPriorSpec(0.1, 0.1)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
                                  (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
def test_spec_and_params_must_be_positive(a, b):
    with pytest.raises(ValueError):
        HyperPriorSpec(a, b)


def test_poisson_logpmf_against_scipy():
    ys = np.arange(0, 150)
    for lam in (0.1, 1.0, 3.74, 50.0):
        np.testing.assert_allclose(
            poisson_logpmf(ys, lam), sps.poisson.logpmf(ys, lam),
            rtol=0, atol=1e-10)


@pytest.mark.parametrize("total, n, alpha, beta", [
    (7, 3, 2.0, 0.5),
    (0, 5, 0.5, 0.1),
    (140, 1, 1.0, 1.0),
])
def test_conjugacy_against_grid_quadrature(total, n, alpha, beta):
    """The conjugate update Gamma(alpha + t, beta + n) must match
    brute-force normalization of likelihood x prior, integrated on a log
    grid (handles the density singularity at zero when the posterior shape
    is < 1)."""
    shape, rate = alpha + total, beta + n
    g_mean, g_var = shape / rate, shape / rate**2
    hi = math.log(max(10.0 * (g_mean + 5 * math.sqrt(g_var)), 50.0))
    u = np.linspace(math.log(1e-12), hi, 400_001)
    lam = np.exp(u)
    # d(lambda) = lambda du, hence the + u in the log integrand
    log_w = (total * np.log(lam) - n * lam
             + sps.gamma.logpdf(lam, a=alpha, scale=1 / beta) + u)
    w = np.exp(log_w - log_w.max())
    z = np.trapezoid(w, u)
    mean = np.trapezoid(w * lam, u) / z
    var = np.trapezoid(w * (lam - mean) ** 2, u) / z
    assert mean == pytest.approx(g_mean, rel=1e-4)
    assert var == pytest.approx(g_var, rel=1e-3)


def test_lambda_conditional_parameters():
    """The sampler draws each site rate from Gamma(alpha + t_j, beta + n_j)
    (shape, rate), floored above zero where a tiny shape underflows."""
    totals, sizes = np.array([7.0, 0.0]), np.array([3.0, 2.0])
    lam = _draw_lambdas(2.0, 0.5, totals, sizes, np.random.default_rng(1))
    expected = np.random.default_rng(1).gamma(shape=[9.0, 2.0],
                                                scale=[1 / 3.5, 1 / 2.5])
    np.testing.assert_array_equal(lam, expected)
    tiny = _draw_lambdas(1e-3, 1.0, np.zeros(1000), np.ones(1000),
                         np.random.default_rng(2))
    assert (tiny > 0).all()


@settings(max_examples=100, deadline=None)
@given(
    y=st.integers(min_value=0, max_value=300),
    lam=st.floats(min_value=0.01, max_value=100.0),
)
def test_poisson_logpmf_matches_scipy_property(y, lam):
    assert float(poisson_logpmf(y, lam)) == pytest.approx(
        float(sps.poisson.logpmf(y, lam)), rel=1e-9, abs=1e-9)

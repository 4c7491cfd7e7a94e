from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from aebayes import seeding
from aebayes.data import loads_dataset
from aebayes.evaluation import LpdResult, log_sum_exp, lpd_dataset, lpd_patient
from aebayes.model import HyperPriorSpec
from aebayes.sampler import McmcConfig, PosteriorDraws, run_mcmc
from aebayes_testkit import make_dataset, point_mass_draws


def nb_logpmf(y: int, alpha: float, beta: float) -> float:
    """Closed-form predictive: Poisson mixed over Gamma(alpha, beta) is
    negative binomial with r = alpha, p = beta / (beta + 1)."""
    return float(sps.nbinom.logpmf(y, alpha, beta / (beta + 1.0)))


def test_log_sum_exp_against_scipy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=1000) * 50
    assert log_sum_exp(x) == pytest.approx(scipy.special.logsumexp(x), abs=1e-10)


def test_log_sum_exp_extremes():
    assert log_sum_exp(np.array([-1e308, -1e308])) == pytest.approx(
        -1e308 + math.log(2.0), rel=1e-12)
    assert log_sum_exp(np.array([-math.inf, 0.0])) == pytest.approx(0.0)
    assert log_sum_exp(np.array([-math.inf, -math.inf])) == -math.inf
    with pytest.raises(ValueError):
        log_sum_exp(np.array([]))


@settings(max_examples=60, deadline=None)
@given(
    xs=st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
    c=st.floats(min_value=-50, max_value=50),
)
def test_log_sum_exp_shift(xs, c):
    arr = np.asarray(xs)
    assert log_sum_exp(arr + c) == pytest.approx(log_sum_exp(arr) + c, abs=1e-9)


def test_nb_closed_form_simple():
    # alpha=1, beta=1: P(y=0) = integral Poisson(0|lam) Expon(lam) = 1/2
    assert nb_logpmf(0, 1.0, 1.0) == pytest.approx(math.log(0.5))
    # alpha=2, beta=1: P(y=3) = 0.125
    assert nb_logpmf(3, 2.0, 1.0) == pytest.approx(math.log(0.125))


def test_lpd_patient_point_mass_matches_negative_binomial():
    draws = point_mass_draws(2.0, 1.0, 200_000)
    got = lpd_patient(3, draws, np.random.default_rng(42))
    assert got == pytest.approx(math.log(0.125), abs=0.01)

    draws = point_mass_draws(1.0, 1.0, 200_000)
    got = lpd_patient(0, draws, np.random.default_rng(7))
    assert got == pytest.approx(math.log(0.5), abs=0.01)


def test_lpd_patient_error_shrinks_with_samples():
    target = nb_logpmf(3, 2.0, 1.0)

    def mean_abs_err(n_samples: int) -> float:
        errs = [abs(lpd_patient(3, point_mass_draws(2.0, 1.0, n_samples),
                                np.random.default_rng(1000 + i)) - target)
                for i in range(8)]
        return float(np.mean(errs))

    assert mean_abs_err(500) > mean_abs_err(50_000)


def test_lpd_patient_two_point_posterior_mixture():
    """With a posterior equally split between two (alpha, beta) points the
    predictive is the average of the two negative binomials."""
    n = 100_000
    alpha = np.where(np.arange(n) % 2 == 0, 2.0, 5.0).reshape(1, -1)
    beta = np.where(np.arange(n) % 2 == 0, 1.0, 0.5).reshape(1, -1)
    draws = PosteriorDraws(
        alpha=alpha, beta=beta, lambdas=np.empty((1, n, 0)), site_ids=(),
        config=McmcConfig(n_chains=1, n_warmup=1, n_draws=n),
    )
    y = 4
    expected = math.log(0.5 * math.exp(nb_logpmf(y, 2.0, 1.0))
                        + 0.5 * math.exp(nb_logpmf(y, 5.0, 0.5)))
    got = lpd_patient(y, draws, np.random.default_rng(3))
    assert got == pytest.approx(expected, abs=0.02)


def test_lpd_patient_validation():
    draws = point_mass_draws(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        lpd_patient(-1, draws, np.random.default_rng(0))


def test_lpd_dataset_deterministic_and_per_patient_streams():
    ds = loads_dataset("site_id,patient_id,ae_count\nA,p1,2\nA,p2,2\nB,p3,5\n")
    draws = point_mass_draws(2.0, 1.0, 500)
    a = lpd_dataset(ds, draws, seed=9)
    b = lpd_dataset(ds, draws, seed=9)
    assert a.per_patient == b.per_patient
    # same observed count, different patient index -> different MC noise
    assert a.per_patient[0] != a.per_patient[1]
    c = lpd_dataset(ds, draws, seed=10)
    assert c.per_patient != a.per_patient


def test_lpd_dataset_patient_stream_matches_direct_call():
    """lpd_dataset scores patients in blocks; every value must equal
    lpd_patient on that patient's own stream bit for bit.  101 patients
    leave a partial last block; the counts include 0 and values >= 20."""
    counts = [0, 20, 3, 47, 1, 0, 25, 2] * 12 + [0, 31, 5, 1, 22]
    ds = loads_dataset("site_id,patient_id,ae_count\n" + "".join(
        f"s{i % 7},p{i},{y}\n" for i, y in enumerate(counts)))
    draws = run_mcmc(make_dataset([3, 4, 5, 2], seed=1), HyperPriorSpec(0.1, 0.1),
                     McmcConfig(n_chains=2, n_warmup=30, n_draws=35, seed=5))
    res = lpd_dataset(ds, draws, seed=4)
    assert res.per_patient == tuple(
        lpd_patient(y, draws, seeding.rng(4, "lpd", i)) for i, y in enumerate(counts))


def test_lpd_result_summaries():
    r = LpdResult(per_patient=(-1.0, -2.0, -3.0), n_posterior_samples=10)
    assert r.n_patients == 3
    assert r.mean_lpd == pytest.approx(-2.0)
    assert r.sd_lpd == pytest.approx(1.0)
    single = LpdResult(per_patient=(-1.5,), n_posterior_samples=10)
    assert single.sd_lpd == 0.0

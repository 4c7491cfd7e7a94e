from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from aebayes import evaluation, sampler
from aebayes.data import Dataset
from aebayes.evaluation import LpdResult, Split, lpd_dataset
from aebayes.model import HyperPriorSpec
from aebayes.sampler import McmcConfig, run_mcmc
from aebayes_testkit import (MIXED_SITE_SIZES, exact_lpd, hyper_draws, loads_dataset,
                             log_sum_exp, lpd_patient, make_dataset, make_rows,
                             point_mass_draws, poisson_logpmf)


def nb_logpmf(y: int, alpha: float, beta: float) -> float:
    """Closed-form predictive: Poisson mixed over Gamma(alpha, beta) is
    negative binomial with r = alpha, p = beta / (beta + 1)."""
    return float(sps.nbinom.logpmf(y, alpha, beta / (beta + 1.0)))


def counts_dataset(counts):
    """One patient per count, spread over a few sites."""
    return loads_dataset("site_id,patient_id,ae_count\n" + "".join(
        f"s{i % 7},p{i},{y}\n" for i, y in enumerate(counts)))


def small_fit(seed: int = 5, n_draws: int = 35):
    return run_mcmc(make_dataset([3, 4, 5, 2], seed=1), HyperPriorSpec(0.1, 0.1),
                    McmcConfig(n_chains=2, n_warmup=30, n_draws=n_draws, seed=seed))


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
    predictive is the average of the two negative binomials: exactly for
    lpd_dataset, within Monte Carlo error for lpd_patient."""
    n = 100_000
    even = np.arange(n) % 2 == 0
    draws = hyper_draws(np.where(even, 2.0, 5.0), np.where(even, 1.0, 0.5))
    y = 4
    expected = math.log(0.5 * math.exp(nb_logpmf(y, 2.0, 1.0))
                        + 0.5 * math.exp(nb_logpmf(y, 5.0, 0.5)))
    got = lpd_patient(y, draws, np.random.default_rng(3))
    assert got == pytest.approx(expected, abs=0.02)
    assert lpd_dataset(counts_dataset([y]), draws).per_patient[0] == pytest.approx(
        expected, rel=1e-13)


def test_lpd_patient_validation():
    draws = point_mass_draws(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        lpd_patient(-1, draws, np.random.default_rng(0))


@pytest.mark.parametrize("alpha,beta", [(2.0, 1.0), (0.03, 1.6), (7.5, 0.4)])
def test_lpd_dataset_point_mass_matches_negative_binomial(alpha, beta):
    """On draws fixed at one point the estimate is the closed form itself,
    to rounding, from y = 0 up to counts deep in the tail, on both sides of
    the bound B above which the log rising factorial takes a Stirling
    series."""
    bound = sampler._RISING_BOUND
    ys = np.concatenate([np.arange(51), [bound - 1, bound, bound + 1, 1000, 10 ** 5]])
    res = lpd_dataset(counts_dataset(ys), point_mass_draws(alpha, beta, 300))
    expected = sps.nbinom.logpmf(ys, alpha, beta / (1.0 + beta))
    np.testing.assert_allclose(res.per_patient, expected, rtol=1e-12, atol=0)


def test_lpd_patient_converges_to_lpd_dataset():
    """The Monte Carlo estimate over the draws tiled m times converges to
    the closed-form average over the same draws: its RMS error over 8
    independent streams shrinks as m grows and ends within 4 Monte Carlo
    SEs.  One stream per m would compare single noisy errors, which can
    fall out of order by chance."""
    draws = small_fit(n_draws=250)
    alpha, beta = draws.pooled_hyperparams()
    ys = [0, 1, 2, 3, 5, 8, 13]
    rb = np.array(lpd_dataset(counts_dataset(ys), draws).per_patient)
    errors = []
    for m in (1, 16, 256):
        tiled = hyper_draws(np.tile(alpha, m), np.tile(beta, m))
        streams = [np.mean([lpd_patient(y, tiled, np.random.default_rng([m, y, k]))
                            for y in ys]) - rb.mean() for k in range(8)]
        errors.append(math.sqrt(np.mean(np.square(streams))))
    assert errors[0] > errors[1] > errors[2]
    # delta-method SE of log(mean w) with w = Poisson(y | lambda_new), the
    # counts' streams being independent
    rng = np.random.default_rng(1)
    n = alpha.size * 256
    var = 0.0
    for y in ys:
        lam = rng.gamma(np.tile(alpha, 256), 1.0 / np.tile(beta, 256))
        w = np.exp(poisson_logpmf(y, lam))
        var += w.var(ddof=1) / (n * w.mean() ** 2)
    assert errors[2] < 4 * math.sqrt(var) / len(ys)


def test_lpd_dataset_matches_exact_posterior_predictive():
    """Against quadrature of the exact posterior p(alpha, beta | data), the
    closed-form LPD averaged over independent fits is unbiased per count:
    z < 3 with the SE taken from its spread across the fits.  The cells'
    ``Split.quadrature`` lies within 4 such SEs too."""
    train = make_dataset([4, 5, 6] * 12, seed=3)
    spec = HyperPriorSpec(0.1, 0.1)
    ys = np.arange(16)
    test = counts_dataset(ys)
    rb = np.array([lpd_dataset(test, run_mcmc(train, spec, McmcConfig(seed=seed))).per_patient
                   for seed in range(8)])
    se = rb.std(axis=0, ddof=1) / math.sqrt(len(rb))
    z = (rb.mean(axis=0) - exact_lpd(ys, train, spec)) / se
    assert np.all(np.abs(z) < 3), z
    # the experiment cells' quadrature, per count and in the mean LPD
    quad = np.array(Split(train, test).quadrature(spec).lpd.per_patient)
    assert np.all(np.abs(rb.mean(axis=0) - quad) < 4 * se)
    cell_means = rb.mean(axis=1)
    assert abs(cell_means.mean() - quad.mean()) < 4 * cell_means.std(ddof=1) / math.sqrt(8)


# training sets of the cells' quadrature: the tier-1 sets, a set where
# most sites have no events, an all-zero set (alpha reaches down to 0), an
# equidispersed set (every count 3), on which G = 64 and 128 disagree, and
# a set with a site total of 1e5 (the rising factorial's Stirling rows)
QUADRATURE_SETS = {
    "mixed": make_dataset(MIXED_SITE_SIZES, seed=9),
    "well_identified": make_dataset([4, 5, 6] * 12, seed=3),
    "zero_heavy": Dataset.from_rows(
        [(f"z{j}", f"q{j}_{i}", 0) for j in range(36) for i in range(1 + j % 4)]
        + [("e0", "r0", 2), ("e0", "r1", 0), ("e1", "r2", 1), ("e2", "r3", 4)]),
    "all_zero": Dataset.from_rows(
        [(f"z{j}", f"q{j}_{i}", 0) for j in range(9) for i in range(1 + j % 3)]),
    "equidispersed": Dataset.from_rows(
        [(f"e{j}", f"q{j}_{i}", 3) for j in range(20) for i in range(1 + j % 4)]),
    "big_total": Dataset.from_rows(make_rows([4, 5, 6] * 12, seed=3)
                                   + [("big", f"b{i}", 10 ** 4) for i in range(10)]),
}


@pytest.mark.parametrize("name", sorted(QUADRATURE_SETS))
def test_quadrature_lpd_matches_oracle(name):
    """Every patient's score equals the scipy-gammaln quadrature oracle
    within 1e-10, on the training set's own counts and on counts from 0 to
    13, under two priors, and on the equidispersed set at y = 300 too, a
    count whose predictive mass lies where the posterior is far below its
    peak, within the same 1e-10; the equidispersed set needs a grid finer
    than G = 128.  Each record's grid passed its checks, over a box within
    one coarse step of the coarse box."""
    sizes = []  # the G each score settled at
    step = evaluation._COARSE[1] - evaluation._COARSE[0]
    train = QUADRATURE_SETS[name]
    tests = [train, counts_dataset([0, 1, 2, 3, 5, 8, 13])]
    if name == "equidispersed":
        tests.append(counts_dataset([300]))
    for test in tests:
        for spec in (HyperPriorSpec(0.1, 0.1), HyperPriorSpec(0.7, 1.3)):
            quad = Split(train, test).quadrature(spec)
            sizes.append(quad.n_grid)
            assert quad.edge_mass < evaluation._EDGE_MASS
            assert quad.change <= evaluation._GRID_TOL
            for (lo, hi), (coarse_lo, coarse_hi) in zip(quad.box, evaluation._COARSE_BOX):
                assert coarse_lo - step <= lo < hi <= coarse_hi + step
            got = np.array(quad.lpd.per_patient)
            ys, patient_y = np.unique(test.counts(), return_inverse=True)
            expected = exact_lpd(ys, train, spec)[patient_y]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
    if name == "equidispersed":
        assert max(sizes) > evaluation._GRID_SIZES[1]


def brute_force_lpd(counts, train: Dataset, spec: HyperPriorSpec, n: int = 1500) -> np.ndarray:
    """The posterior predictive by scipy's gammaln on one n x n grid over
    (log alpha, log beta) in [-12, 12]^2, with no search for the mass."""
    pairs, mult = np.unique(np.stack([train.site_totals(), train.site_sizes()]), axis=1,
                            return_counts=True)
    u = np.linspace(-12.0, 12.0, n)
    a, b = np.exp(u)[:, None], np.exp(u)[None, :]
    lp = u[:, None] + u[None, :] - spec.alpha_rate * a - spec.beta_rate * b
    for (t, m), c in zip(pairs.T, mult):
        lp += c * (a * np.log(b) + scipy.special.gammaln(a + t) - scipy.special.gammaln(a)
                   - (a + t) * np.log(b + m))
    return np.array([scipy.special.logsumexp(
        lp + scipy.special.gammaln(y + a) - scipy.special.gammaln(a) - math.lgamma(y + 1.0)
        + a * np.log(b) - (a + y) * np.log1p(b)) for y in counts]) - scipy.special.logsumexp(lp)


def test_quadrature_lpd_extreme_counts():
    """A count far above the training rates draws its predictive mass from
    where the posterior is below e^-40 of its peak: the grid reaches there
    too, so the score matches a brute-force grid over a box that holds
    everything."""
    train, spec = QUADRATURE_SETS["equidispersed"], HyperPriorSpec(0.1, 0.1)
    counts = [0, 40, 300, 2000]  # 2000 takes the log-space sum
    got = np.array(Split(train, counts_dataset(counts)).quadrature(spec).lpd.per_patient)
    np.testing.assert_allclose(got, brute_force_lpd(counts, train, spec), rtol=0, atol=1e-9)


def test_quadrature_lpd_rejects_mass_off_the_grid():
    """Rates of 1e-6 leave the equidispersed set's posterior running on
    along alpha / beta = 3 past the largest alpha of the coarse box, where
    its maximum sits, and the score raises NumericalError.  So does a rate
    from about 1e31 up, which pins the peak to the least alpha or beta at a
    log density too large for the coarse search to keep any point, and
    whose product with alpha or beta may overflow, with no numpy warning."""
    train = QUADRATURE_SETS["equidispersed"]
    spec = HyperPriorSpec(1e-6, 1e-6)
    split = Split(train, train)
    lp = split._grid(evaluation._COARSE_BOX, evaluation._COARSE.size).posterior(
        (spec.alpha_rate, spec.beta_rate))
    assert np.unravel_index(lp.argmax(), lp.shape)[0] == evaluation._COARSE.size - 1
    with pytest.raises(sampler.NumericalError, match="on its edge"):
        split.quadrature(spec)
    for rates in [(1e32, 0.1), (0.1, 1e32), (1e308, 0.1)]:
        with pytest.raises(sampler.NumericalError, match="on its edge"):
            split.quadrature(HyperPriorSpec(*rates))


def test_quadrature_lpd_raises_when_the_grid_never_settles(monkeypatch):
    """Two grid sizes whose values can never agree within the tolerance
    end in NumericalError, naming the tolerance and the last G."""
    monkeypatch.setattr(evaluation, "_GRID_SIZES", (64, 128))
    monkeypatch.setattr(evaluation, "_GRID_TOL", -1.0)
    split = Split(QUADRATURE_SETS["mixed"], counts_dataset([0, 2, 5]))
    with pytest.raises(sampler.NumericalError, match="still moves by over -1 at G = 128"):
        split.quadrature(HyperPriorSpec(0.1, 0.1))


# a CV fold's 13 priors: the baseline's and 12 more whose rates span three
# decades, so the coarse grid picks more than one box
FOLD_SPECS = [HyperPriorSpec(0.1, 0.1)] + [HyperPriorSpec(a, b) for a in (0.05, 0.5, 5.0)
                                           for b in (0.02, 0.3, 3.0, 30.0)]


@pytest.mark.parametrize("name", ["equidispersed", "well_identified"])
def test_shared_split_scores_as_fresh_terms(name):
    """One ``Split`` scores a fold's 13 priors, over more than one box, to
    the same bits as terms built fresh for each cell.  The equidispersed
    set needs G > 128, and at y = 2000 its sum is taken in log space."""
    train, test = QUADRATURE_SETS[name], counts_dataset([0, 1, 3, 40, 300, 2000])
    split = evaluation.Split(train, test)
    quads = [split.quadrature(spec) for spec in FOLD_SPECS]
    for spec, quad in zip(FOLD_SPECS, quads):
        assert quad.lpd.per_patient == Split(train, test).quadrature(spec).lpd.per_patient
    n_boxes = len({quad.box for quad in quads})
    if name == "equidispersed":
        assert n_boxes > 1
        assert max(quad.n_grid for quad in quads) > evaluation._GRID_SIZES[1]
    else:  # some priors share a box, and so its memo
        assert 1 < n_boxes < len(FOLD_SPECS)


def test_split_scores_a_repeated_prior_once(monkeypatch):
    """A prior scored before gets its kept result, with no grid scored."""
    split = evaluation.Split(QUADRATURE_SETS["mixed"], counts_dataset([0, 2, 5]))
    first = split.quadrature(HyperPriorSpec(0.1, 0.1))
    monkeypatch.setattr(evaluation._Grid, "posterior", None)
    assert split.quadrature(HyperPriorSpec(0.1, 0.1)) is first


def test_split_rejects_an_empty_test_set():
    """A test set with no patients has no count to score: building its
    ``Split`` raises ValueError naming the empty test set."""
    with pytest.raises(ValueError, match="the test set holds no patients"):
        Split(QUADRATURE_SETS["mixed"], Dataset.from_rows([]))


def test_lpd_dataset_rejects_an_empty_test_set():
    """Scoring no patients raises ValueError naming the empty test set,
    not an ``LpdResult`` whose mean is nan."""
    with pytest.raises(ValueError, match="the test set holds no patients"):
        lpd_dataset(Dataset.from_rows([]), small_fit())


def test_lpd_dataset_independent_of_seed():
    """Nothing is random: the seed changes nothing, and patients with equal
    counts get equal values wherever they sit."""
    ds = counts_dataset([2, 5, 2, 0, 2])
    draws = small_fit()
    res = lpd_dataset(ds, draws)
    assert lpd_dataset(ds, draws, seed=9) == res
    assert lpd_dataset(ds, draws, seed=10) == res
    values = res.per_patient
    assert values[0] == values[2] == values[4]
    assert len(set(values)) == 3


def test_lpd_dataset_permuting_patients_permutes_values():
    """101 patients with counts from 0 to 47; permuting the rows permutes
    the values and nothing else."""
    counts = [0, 20, 3, 47, 1, 0, 25, 2] * 12 + [0, 31, 5, 1, 22]
    draws = small_fit()
    values = lpd_dataset(counts_dataset(counts), draws).per_patient
    order = np.random.default_rng(0).permutation(len(counts))
    permuted = lpd_dataset(counts_dataset([counts[i] for i in order]), draws).per_patient
    assert permuted == tuple(values[i] for i in order)
    by_count = dict(zip(counts, values))
    assert values == tuple(by_count[y] for y in counts)


def test_lpd_result_summaries():
    r = LpdResult(per_patient=(-1.0, -2.0, -3.0))
    assert r.n_patients == 3
    assert r.mean_lpd == pytest.approx(-2.0)
    assert r.sd_lpd == pytest.approx(1.0)
    single = LpdResult(per_patient=(-1.5,))
    assert single.sd_lpd == 0.0

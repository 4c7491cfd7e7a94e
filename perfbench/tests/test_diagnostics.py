"""Checks of the benchmark's ESS and R-hat helpers and its span recorder.

    python3 -m pytest perfbench/tests -q
"""

import numpy as np
import pytest

from diagnostics import ess_bulk, rhat_report
from spans import SpanRecorder


def _ar1(rho: float, n_chains: int, n_draws: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(n_chains, n_draws))
    x = np.empty_like(noise)
    x[:, 0] = noise[:, 0] / np.sqrt(1.0 - rho**2)  # start in the stationary law
    for t in range(1, n_draws):
        x[:, t] = rho * x[:, t - 1] + noise[:, t]
    return x


@pytest.mark.parametrize("rho", [0.5, 0.8, 0.95])
def test_ar1_ess_matches_closed_form(rho):
    n_chains, n_draws = 4, 5000
    known = n_chains * n_draws * (1 - rho) / (1 + rho)
    estimates = [ess_bulk(_ar1(rho, n_chains, n_draws, seed)) for seed in range(5)]
    assert np.mean(estimates) == pytest.approx(known, rel=0.1)


def test_iid_draws_have_ess_near_draw_count():
    draws = np.random.default_rng(0).normal(size=(4, 2000))
    assert ess_bulk(draws) == pytest.approx(8000, rel=0.1)


def test_ess_is_rank_based():
    x = _ar1(0.7, 4, 2000, 1)
    assert ess_bulk(np.exp(x)) == pytest.approx(ess_bulk(x), rel=1e-9)


def test_stuck_chains_have_low_ess():
    rng = np.random.default_rng(2)
    draws = rng.normal(size=(4, 1000)) * 0.1 + np.arange(4)[:, None]  # chains disagree
    assert ess_bulk(draws) < 50


def test_ess_rejects_bad_shape():
    with pytest.raises(ValueError):
        ess_bulk(np.zeros(10))


REPORT = """parameter       rhat
--------------  ------
alpha           1.1572
beta            1.0616
lambda[site01]  1.1000
lambda[site02]  inf

warning: rhat >= 1.1 for: alpha, lambda[site01], lambda[site02]
"""


def test_rhat_report_counts_flagged_parameters():
    assert rhat_report(REPORT) == (3, 4)
    assert rhat_report(REPORT, threshold=2.0)[0] == 1


def test_rhat_report_rejects_other_text():
    with pytest.raises(ValueError):
        rhat_report("not a report\n---\n")


def test_self_time_subtracts_children():
    rec = SpanRecorder("w")
    with rec.span("outer") as outer:
        with rec.span("inner", cell="c1", probe=True) as inner:
            pass
    outer.update(start=0.0, end=10.0)
    inner.update(start=2.0, end=5.0)
    assert rec.spans[1]["parent"] == 0
    assert rec.self_times() == [7.0, 3.0]
    assert rec.self_time_by_name(include_probes=False) == {"outer": 7.0}

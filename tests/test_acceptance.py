"""End-to-end acceptance checks.

Each test prints a single ``acceptance[...]: PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live).  The last two
checks reproduce reference results and need the curated trial file; they
are skipped unless the AEBAYES_DATASET environment variable points at it.
"""
from __future__ import annotations

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from aebayes import seeding
from aebayes.cli import main
from aebayes.crossval import CvCondition, run_cv_experiment
from aebayes.data import Dataset, load_dataset
from aebayes.efficiency import run_efficiency_experiment
from aebayes.elicitation import (
    ElicitationConfig,
    PromptStrategy,
    ResponseFormatError,
    build_prompt,
    parse_response,
)
from aebayes.evaluation import lpd_patient
from aebayes.model import HyperPriorSpec
from aebayes.sampler import McmcConfig, compute_rhat, run_mcmc
from aebayes_testkit import point_mass_draws

GOLDEN_DIR = Path(__file__).parent / "data"

DATASET_ENV_VAR = "AEBAYES_DATASET"
needs_trial_data = pytest.mark.skipif(
    not os.environ.get(DATASET_ENV_VAR),
    reason=f"set {DATASET_ENV_VAR} to the curated trial file",
)


def _verdict(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance[{criterion}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _dataset_from_site_counts(site_counts: dict[str, list[int]]) -> Dataset:
    rows = [(site, int(c)) for site, counts in site_counts.items() for c in counts]
    return Dataset.from_rows((site, f"p{pid:05d}", c) for pid, (site, c) in enumerate(rows))


def test_01_frozen_hyperparams_recover_conjugate_moments():
    dataset = _dataset_from_site_counts({"siteA": [3, 2, 2]})  # total 7, n 3
    config = McmcConfig(n_chains=4, n_warmup=200, n_draws=1000, seed=0,
                        freeze_hyperparams=(2.0, 0.5))
    start = time.perf_counter()
    draws = run_mcmc(dataset, HyperPriorSpec(1.0, 1.0), config)
    elapsed = time.perf_counter() - start

    lam = draws.lambdas[:, :, 0].ravel()
    assert lam.size == 4000
    target_mean = 9.0 / 3.5
    target_var = 9.0 / 3.5**2
    mean_err = abs(lam.mean() - target_mean) / target_mean
    var_err = abs(lam.var(ddof=1) - target_var) / target_var
    ok = mean_err < 0.02 and var_err < 0.10 and elapsed < 5.0
    _verdict("conjugate-moments", ok,
             f"mean rel err {mean_err:.4f}, var rel err {var_err:.4f}, "
             f"{elapsed:.2f}s")


def test_02_point_mass_lpd_matches_negative_binomial():
    start = time.perf_counter()
    big = point_mass_draws(2.0, 1.0, 1_000_000)
    value = lpd_patient(3, big, seeding.rng(0, "acc-lpd"))
    target = math.log(0.125)
    main_err = abs(value - target)

    def mean_abs_error(n_samples: int) -> float:
        errs = [abs(lpd_patient(3, point_mass_draws(2.0, 1.0, n_samples),
                                seeding.rng(s, "acc-lpd-trend")) - target)
                for s in range(5)]
        return float(np.mean(errs))

    err_small = mean_abs_error(10_000)
    err_large = mean_abs_error(1_000_000)
    elapsed = time.perf_counter() - start
    ok = main_err < 0.01 and err_small > err_large and elapsed < 30.0
    _verdict("point-mass-lpd", ok,
             f"|err| {main_err:.5f}, 1e4-sample err {err_small:.5f} > "
             f"1e6-sample err {err_large:.5f}, {elapsed:.1f}s")


def test_03_hyperparameters_recovered_from_synthetic_data():
    alpha_true, beta_true = 2.0, 1.0
    gen = seeding.rng(7, "acc-recovery")
    rates = gen.gamma(shape=alpha_true, scale=1.0 / beta_true, size=200)
    dataset = _dataset_from_site_counts(
        {f"s{j:03d}": list(gen.poisson(rates[j], size=5)) for j in range(200)})

    start = time.perf_counter()
    draws = run_mcmc(dataset, HyperPriorSpec(1.0, 1.0), McmcConfig())
    elapsed = time.perf_counter() - start

    z_alpha = abs(draws.alpha.mean() - alpha_true) / draws.alpha.std(ddof=1)
    z_beta = abs(draws.beta.mean() - beta_true) / draws.beta.std(ddof=1)
    worst_rhat = max(draws.diagnostics.values())
    ok = z_alpha < 3.0 and z_beta < 3.0 and worst_rhat < 1.1 and elapsed < 120.0
    _verdict("parameter-recovery", ok,
             f"z_alpha {z_alpha:.2f}, z_beta {z_beta:.2f}, "
             f"max rhat {worst_rhat:.3f}, {elapsed:.1f}s")


def test_04_rhat_separates_mixed_from_divergent_chains():
    rng = seeding.rng(4, "acc-rhat")
    chains = rng.normal(size=(4, 1000))
    mixed = compute_rhat(chains)
    divergent = compute_rhat(chains + 5.0 * np.arange(4)[:, None])
    ok = 0.99 <= mixed <= 1.01 and divergent > 1.5
    _verdict("rhat-calibration", ok,
             f"iid {mixed:.4f} in [0.99, 1.01], offset {divergent:.2f} > 1.5")


def test_05_prompts_match_golden_files():
    blind = (GOLDEN_DIR / "prompt_blind.txt").read_bytes()
    informed = (GOLDEN_DIR / "prompt_disease_informed.txt").read_bytes()
    ok = (build_prompt(PromptStrategy.BLIND).encode("utf-8") == blind
          and build_prompt(PromptStrategy.DISEASE_INFORMED).encode("utf-8") == informed)
    _verdict("prompt-golden-files", ok,
             f"blind {len(blind)} bytes, disease-informed {len(informed)} bytes")


VALID_RESPONSES = [
    ('{"alpha_rate": 0.5, "beta_rate": 0.1}', (0.5, 0.1)),
    ('```json\n{"alpha_rate": 0.1, "beta_rate": 1.0}\n```', (0.1, 1.0)),
    ('```json\n{"alpha_rate": 0.1, "beta_rate": 2.0}\n```', (0.1, 2.0)),
    ('```\n{"alpha_rate": 0.5, "beta_rate": 0.1}\n```', (0.5, 0.1)),
]

MALFORMED_RESPONSES = [
    ("", "unparseable"),
    ("I think alpha should be about 0.5", "unparseable"),
    ('[0.5, 0.1]', "expected JSON object"),
    ('"alpha_rate"', "expected JSON object"),
    ('{"beta_rate": 0.1}', "missing field: alpha_rate"),
    ('{"alpha_rate": 0.5}', "missing field: beta_rate"),
    ('{"alpha_rate": "half", "beta_rate": 0.1}', "non-numeric value for alpha_rate"),
    ('{"alpha_rate": true, "beta_rate": 0.1}', "non-numeric value for alpha_rate"),
    ('{"alpha_rate": null, "beta_rate": 0.1}', "non-numeric value for alpha_rate"),
    ('{"alpha_rate": 0.5, "beta_rate": 0}', "non-positive value for beta_rate"),
    ('{"alpha_rate": -2, "beta_rate": 0.1}', "non-positive value for alpha_rate"),
    ('{"alpha_rate": Infinity, "beta_rate": 0.1}', "non-finite value for alpha_rate"),
    ('{"alpha_rate": 0.5, "beta_rate": NaN}', "non-finite value for beta_rate"),
    ('```json\nnot json at all\n```', "unparseable"),
]


def test_06_parser_handles_example_and_malformed_responses():
    failures = []
    for raw, expected in VALID_RESPONSES:
        got = parse_response(raw)
        if got != expected:
            failures.append(f"{raw!r} -> {got}")
    for raw, fragment in MALFORMED_RESPONSES:
        try:
            got = parse_response(raw)
            failures.append(f"{raw!r} unexpectedly parsed to {got}")
        except ResponseFormatError as exc:
            if fragment not in str(exc):
                failures.append(f"{raw!r}: error {str(exc)!r} lacks {fragment!r}")
    ok = not failures and len(MALFORMED_RESPONSES) >= 10
    _verdict("parser-corpus", ok,
             f"{len(VALID_RESPONSES)} valid + {len(MALFORMED_RESPONSES)} "
             f"malformed" + (f"; failures: {failures}" if failures else ""))


_ACC_DATASET = """site_id,patient_id,ae_count
s01,p01,2
s01,p02,0
s02,p03,1
s02,p04,4
s03,p05,3
s03,p06,1
s03,p07,0
s04,p08,2
s04,p09,5
s04,p10,1
s04,p11,0
s05,p12,2
s05,p13,3
s05,p14,1
s05,p15,6
s05,p16,0
s06,p17,1
s06,p18,2
s06,p19,0
s06,p20,3
s06,p21,1
s06,p22,4
s07,p23,0
s07,p24,2
s08,p25,1
s08,p26,3
s09,p27,2
s09,p28,0
s09,p29,1
"""

_ACC_CONFIG = "n_chains = 2\nn_warmup = 60\nn_draws = 60\nbackoff_base = 0.001\n"


def _write_experiment_inputs(tmp_path: Path) -> tuple[str, str, str]:
    import json as _json

    data = tmp_path / "counts.csv"
    data.write_text(_ACC_DATASET, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_ACC_CONFIG, encoding="utf-8")
    fx = tmp_path / "fixtures.jsonl"
    lines = [
        {"model": "m1", "strategy": "blind", "temperature": 0.5,
         "response": '{"alpha_rate": 0.5, "beta_rate": 0.1}'},
        {"model": "m1", "strategy": "blind", "temperature": 1.0,
         "response": '{"alpha_rate": 0.5, "beta_rate": 0.1}'},
    ]
    fx.write_text("".join(_json.dumps(x) + "\n" for x in lines), encoding="utf-8")
    return str(data), str(cfg), str(fx)


def _output_bytes(out_dir: Path) -> dict[str, bytes]:
    # audit logs carry timestamps by design; results and reports must not
    snapshot = {}
    for sub in ("results", "reports"):
        for p in sorted((out_dir / sub).iterdir()):
            snapshot[f"{sub}/{p.name}"] = p.read_bytes()
    return snapshot


def test_07_experiment_outputs_bit_identical(tmp_path):
    data, cfg, fx = _write_experiment_inputs(tmp_path)

    def run_cv(name: str, n_jobs: str) -> dict[str, bytes]:
        out = tmp_path / name
        rc = main(["cv", "--dataset", data, "--config", cfg, "--fixtures", fx,
                   "--out", str(out), "--k", "3", "--models", "m1",
                   "--strategies", "blind", "--temperatures", "0.5",
                   "--n-jobs", n_jobs])
        assert rc == 0
        return _output_bytes(out)

    def run_eff(name: str, n_jobs: str) -> dict[str, bytes]:
        out = tmp_path / name
        rc = main(["efficiency", "--dataset", data, "--config", cfg,
                   "--fixtures", fx, "--out", str(out), "--model", "m1",
                   "--strategy", "blind", "--temperature", "1.0",
                   "--rho-grid", "0.5,1.0", "--n-replications", "2",
                   "--n-jobs", n_jobs])
        assert rc == 0
        return _output_bytes(out)

    cv_runs = [run_cv("cv_a", "1"), run_cv("cv_b", "1"), run_cv("cv_c", "2")]
    eff_runs = [run_eff("ef_a", "1"), run_eff("ef_b", "1"), run_eff("ef_c", "2")]
    cv_ok = cv_runs[0] == cv_runs[1] == cv_runs[2]
    eff_ok = eff_runs[0] == eff_runs[1] == eff_runs[2]
    _verdict("pipeline-determinism", cv_ok and eff_ok,
             f"cv files {sorted(cv_runs[0])} and efficiency files "
             f"{sorted(eff_runs[0])} identical across reruns and n_jobs 1 vs 2")


def _fixture_transport_for(model: str, temperature: float):
    from aebayes.elicitation import FixtureTransport

    transport = FixtureTransport()
    for strategy in ("blind", "disease_informed"):
        transport.add_record({
            "model": model, "strategy": strategy, "temperature": temperature,
            "response": '{"alpha_rate": 0.5, "beta_rate": 0.1}',
        })
    return transport


def test_08_experiment_structure(tmp_path):
    data_path = tmp_path / "counts.csv"
    data_path.write_text(_ACC_DATASET, encoding="utf-8")
    dataset = load_dataset(data_path)
    mcmc = McmcConfig(n_chains=2, n_warmup=40, n_draws=40, seed=0)
    baseline = CvCondition.meta_analytical()

    def llm(n_queries):
        return CvCondition(strategy=PromptStrategy.BLIND, elicit=ElicitationConfig(
            model_id="m1", temperature=1.0, n_queries=n_queries, backoff_base=0.001))

    k = 3
    cv = run_cv_experiment(dataset, [baseline, llm(5)], mcmc,
                           transport=_fixture_transport_for("m1", 1.0),
                           k=k, seed=0)
    llm_cv = next(r for r in cv if r.condition.is_llm)
    cv_records = sum(len(f.prior.records) for f in llm_cv.per_fold)

    eff = run_efficiency_experiment(
        dataset, [baseline, llm(1)], mcmc,
        transport=_fixture_transport_for("m1", 1.0),
        rho_grid=(1.0,), seed=0)  # replication count left at its default
    reps_per_cell = {len(cell.runs) for cell in eff.cells}
    test_sizes = {run.n_test_patients for cell in eff.cells for run in cell.runs}
    eff_records = {len(run.prior.records) for cell in eff.cells for run in cell.runs
                   if run.prior is not None}

    ok = (cv_records == k * 5
          and reps_per_cell == {20}
          and eff_records == {1}
          and test_sizes == {eff.n_test_patients})
    _verdict("experiment-structure", ok,
             f"cv records {cv_records} == {k}x5, replications {reps_per_cell}, "
             f"queries per efficiency cell {eff_records}, "
             f"shared test set of {eff.n_test_patients} patients")


@needs_trial_data
def test_09_curated_trial_reproduction():
    dataset = load_dataset(os.environ[DATASET_ENV_VAR])
    size_ok = dataset.n_patients == 468 and dataset.n_sites == 125

    cv = run_cv_experiment(dataset, [CvCondition.meta_analytical()],
                           McmcConfig(), transport=None, k=5, seed=0)
    cv_lpd = cv[0].pooled_mean_lpd
    cv_ok = abs(cv_lpd - (-3.963)) <= 0.15

    eff = run_efficiency_experiment(
        dataset, [CvCondition.meta_analytical()], McmcConfig(),
        transport=None, n_replications=20, seed=0)
    eff_lpd = eff.cells[0].lpd_mean
    eff_ok = abs(eff_lpd - (-4.103)) <= 0.15

    _verdict("trial-reproduction", size_ok and cv_ok and eff_ok,
             f"{dataset.n_patients} patients / {dataset.n_sites} sites, "
             f"cv lpd {cv_lpd:.3f} vs -3.963 +- 0.15, "
             f"full-data lpd {eff_lpd:.3f} vs -4.103 +- 0.15")


@needs_trial_data
def test_10_eighty_percent_training_data_plateau():
    dataset = load_dataset(os.environ[DATASET_ENV_VAR])
    cond = CvCondition(strategy=PromptStrategy.BLIND, elicit=ElicitationConfig(
        model_id="m1", temperature=1.0, n_queries=1, backoff_base=0.001))
    eff = run_efficiency_experiment(
        dataset, [cond], McmcConfig(),
        transport=_fixture_transport_for("m1", 1.0),
        rho_grid=(0.8, 1.0), n_replications=20, seed=0)
    by_rho = {cell.rho: cell.lpd_mean for cell in eff.cells}
    gap = abs(by_rho[0.8] - by_rho[1.0])
    _verdict("sample-efficiency-plateau", gap < 0.05,
             f"lpd {by_rho[0.8]:.3f} at rho 0.8 vs {by_rho[1.0]:.3f} at "
             f"rho 1.0, gap {gap:.3f} < 0.05")

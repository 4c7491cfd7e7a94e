from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from aebayes.cli import _resolve_config, build_parser, load_config, main
from aebayes.data import Dataset
from aebayes.elicitation import FixtureTransport, PromptStrategy
from aebayes_testkit import make_rows, write_dataset

DATASET = """site_id,patient_id,ae_count
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

SMALL_MCMC_CONFIG = """
# keep chains short so the command-level tests stay fast
n_chains = 2
n_warmup = 40
n_draws = 40
backoff_base = 0.001
"""


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(DATASET, encoding="utf-8")
    return str(path)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_MCMC_CONFIG, encoding="utf-8")
    return str(path)


def write_fixtures(tmp_path, entries, name="fixtures.jsonl"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry) + "\n")
    return str(path)


def fixture_entry(model, strategy, temperature,
                  response='{"alpha_rate": 0.5, "beta_rate": 0.1}'):
    return {"model": model, "strategy": strategy,
            "temperature": temperature, "response": response}


# distinct answers, so a replay that served them out of order would change
# the results; the unparseable one must replay as a failed query too
DISTINCT_RESPONSES = ['{"alpha_rate": 0.5, "beta_rate": 0.1}',
                      '{"alpha_rate": 1.5, "beta_rate": 0.4}',
                      '{"alpha_rate": 0.2, "beta_rate": 2.0}']
REPLAY_RESPONSES = [DISTINCT_RESPONSES[0], "not json", *DISTINCT_RESPONSES[1:]]


def output_bytes(out_dir):
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for kind in ("results", "reports")
            for p in sorted((out_dir / kind).iterdir())}


def test_ingest_prints_summary(dataset_file, capsys):
    assert main(["ingest", dataset_file]) == 0
    out = capsys.readouterr().out
    assert "29 patients, 9 sites" in out
    assert "site size" in out


def test_ingest_writes_report(dataset_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["ingest", dataset_file, "--out", str(out_dir)]) == 0
    report = (out_dir / "reports" / "ingest.txt").read_text()
    assert "29 patients, 9 sites" in report


def test_ingest_malformed_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("site_id,patient_id,ae_count\ns01,p01,-3\n")
    assert main(["ingest", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err
    assert "line 2" in err


def test_ingest_non_utf8_file_exit_code(tmp_path, capsys):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("site_id,patient_id,ae_count\nsité,p01,3\n".encode("latin-1"))
    assert main(["ingest", str(latin1)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert "latin1.csv" in err and "UTF-8" in err


def test_ingest_missing_file_exit_code(tmp_path, capsys):
    assert main(["ingest", str(tmp_path / "nope.csv")]) == 3
    assert "data error" in capsys.readouterr().err


def test_elicit_fixture_mode(tmp_path, capsys):
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 1.0)])
    out_dir = tmp_path / "out"
    rc = main(["elicit", "--fixtures", fx, "--model", "m1",
               "--temperature", "1.0", "--out", str(out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alpha_rate = 0.5" in out
    assert "queries: 5 (5 parsed)" in out
    audit = (out_dir / "audit" / "elicitations.jsonl").read_text().splitlines()
    assert len(audit) == 5
    assert all(json.loads(line)["parsed"] == [0.5, 0.1] for line in audit)


def test_elicit_all_responses_malformed_exit_code(tmp_path, capsys):
    fx = write_fixtures(
        tmp_path, [fixture_entry("m1", "blind", 1.0, response="not json")])
    rc = main(["elicit", "--fixtures", fx, "--model", "m1",
               "--temperature", "1.0", "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "elicitation error" in capsys.readouterr().err


def test_live_mode_requires_api_key(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    rc = main(["elicit", "--live", "--model", "m1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "LLM_API_KEY" in capsys.readouterr().err


def test_no_transport_choice_is_config_error(tmp_path, capsys):
    rc = main(["elicit", "--model", "m1", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_fit_writes_draws_and_diagnostics(dataset_file, config_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["fit", "--dataset", dataset_file, "--config", config_file,
               "--out", str(out_dir)])
    assert rc == 0
    draws = (out_dir / "draws" / "draws.csv").read_text().splitlines()
    assert draws[0] == "chain,draw,parameter,value"
    parameters = {line.split(",")[2] for line in draws[1:]}
    assert "alpha" in parameters and "beta" in parameters
    assert any(p.startswith("lambda[") for p in parameters)
    report = (out_dir / "reports" / "fit_diagnostics.txt").read_text()
    assert "rhat" in report
    assert "alpha" in report


def test_fit_freeze_omits_hyperparameter_draws(dataset_file, config_file, tmp_path):
    out_dir = tmp_path / "out"
    rc = main(["fit", "--dataset", dataset_file, "--config", config_file,
               "--out", str(out_dir), "--freeze", "2.0", "0.5"])
    assert rc == 0
    draws = (out_dir / "draws" / "draws.csv").read_text().splitlines()
    parameters = {line.split(",")[2] for line in draws[1:]}
    assert "alpha" not in parameters
    assert all(p.startswith("lambda[") for p in parameters)


def test_fit_is_deterministic(dataset_file, config_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["fit", "--dataset", dataset_file, "--config", config_file,
                     "--out", str(out), "--seed", "7"]) == 0
    assert ((out_a / "draws" / "draws.csv").read_bytes()
            == (out_b / "draws" / "draws.csv").read_bytes())


def test_fit_invalid_prior_rate_exit_code(dataset_file, tmp_path, capsys):
    rc = main(["fit", "--dataset", dataset_file, "--out", str(tmp_path / "out"),
               "--alpha-rate", "-1.0"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("flags, config_line", [
    (["--alpha-rate", "inf"], ""),
    (["--beta-rate", "nan"], ""),
    (["--freeze", "inf", "1"], ""),
    ([], "rhat_threshold = nan\n"),
], ids=["alpha_rate_inf", "beta_rate_nan", "freeze_inf", "rhat_threshold_nan"])
def test_fit_non_finite_setting_exit_code(dataset_file, tmp_path, capsys, flags, config_line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_MCMC_CONFIG + config_line, encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = main(["fit", "--dataset", dataset_file, "--config", str(cfg),
               "--out", str(out_dir), *flags])
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (out_dir / "draws").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_fit_numerical_failure_exit_code(dataset_file, config_file, tmp_path, capsys):
    # a Gamma(1e308, 1e-300) site rate overflows to inf
    out_dir = tmp_path / "out"
    rc = main(["fit", "--dataset", dataset_file, "--config", config_file,
               "--out", str(out_dir), "--no-data", "--freeze", "1e308", "1e-300"])
    assert rc == 5
    assert capsys.readouterr().err.startswith("numerical error: ")
    assert not (out_dir / "draws" / "draws.csv").exists()


def test_cv_baseline_only(dataset_file, tmp_path, capsys):
    cfg = tmp_path / "cv.cfg"
    cfg.write_text(SMALL_MCMC_CONFIG + "models =\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = main(["cv", "--dataset", dataset_file, "--config", str(cfg),
               "--out", str(out_dir), "--k", "3"])
    assert rc == 0
    summary = (out_dir / "results" / "cv_summary.csv").read_text().splitlines()
    assert len(summary) == 2  # header + one baseline row
    assert summary[1].startswith("meta_analytical,")
    folds = (out_dir / "results" / "cv_folds.csv").read_text().splitlines()
    assert len(folds) == 4  # header + 3 folds
    assert not (out_dir / "audit").exists()  # nothing was elicited


def test_cv_without_any_condition_exit_code(dataset_file, config_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["cv", "--dataset", dataset_file, "--config", config_file,
               "--out", str(out_dir), "--k", "3", "--no-baseline", "--models", ""])
    assert rc == 2
    assert "no condition to run" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cv_with_fixtures(dataset_file, config_file, tmp_path, capsys):
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])
    out_dir = tmp_path / "out"
    rc = main(["cv", "--dataset", dataset_file, "--config", config_file,
               "--out", str(out_dir), "--k", "3", "--fixtures", fx,
               "--models", "m1", "--strategies", "blind",
               "--temperatures", "0.5"])
    assert rc == 0
    folds = (out_dir / "results" / "cv_folds.csv").read_text().splitlines()
    assert len(folds) == 7  # header + 2 conditions x 3 folds
    audit = (out_dir / "audit" / "cv_elicitations.jsonl").read_text().splitlines()
    assert len(audit) == 15  # 3 folds x 5 queries
    report = (out_dir / "reports" / "cv_report.txt").read_text()
    assert "meta_analytical" in report
    assert "m1|blind|T=0.5" in report


def test_cv_results_are_bit_identical_across_runs(dataset_file, config_file, tmp_path):
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])

    def run(name):
        out_dir = tmp_path / name
        assert main(["cv", "--dataset", dataset_file, "--config", config_file,
                     "--out", str(out_dir), "--k", "3", "--fixtures", fx,
                     "--models", "m1", "--strategies", "blind",
                     "--temperatures", "0.5", "--seed", "11"]) == 0
        return {p.name: p.read_bytes()
                for p in (out_dir / "results").iterdir()}

    assert run("one") == run("two")


def test_cv_unknown_strategy_exit_code(dataset_file, tmp_path, capsys):
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])
    rc = main(["cv", "--dataset", dataset_file, "--out", str(tmp_path / "out"),
               "--fixtures", fx, "--models", "m1", "--strategies", "oracle"])
    assert rc == 2
    assert "unknown strategy" in capsys.readouterr().err


def test_efficiency_single_condition(dataset_file, config_file, tmp_path, capsys):
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 1.0)])
    out_dir = tmp_path / "out"
    rc = main(["efficiency", "--dataset", dataset_file, "--config", config_file,
               "--out", str(out_dir), "--fixtures", fx, "--model", "m1",
               "--strategy", "blind", "--temperature", "1.0",
               "--rho-grid", "0.5,1.0", "--n-replications", "2"])
    assert rc == 0
    summary = (out_dir / "results" / "efficiency_summary.csv").read_text().splitlines()
    # baseline only at rho=1, LLM condition at both rho values
    assert len(summary) == 4
    assert summary[1].startswith("meta_analytical,1,")
    runs = (out_dir / "results" / "efficiency_runs.csv").read_text().splitlines()
    assert len(runs) == 1 + 2 + 4  # header + baseline 2 reps + llm 2x2
    report = (out_dir / "reports" / "efficiency_report.txt").read_text()
    assert "test set:" in report
    audit = (out_dir / "audit" / "efficiency_elicitations.jsonl").read_text().splitlines()
    assert len(audit) == 4  # one query per (rho, replication) cell


@pytest.mark.parametrize("command", [
    ["cv", "--k", "3", "--models", "model-one", "--strategies", "blind",
     "--temperatures", "0.5"],
    ["efficiency", "--model", "model-one", "--strategy", "blind", "--temperature", "0.5",
     "--rho-grid", "0.5,1.0", "--n-replications", "2"],
], ids=["cv", "efficiency"])
def test_no_baseline_drops_only_baseline_rows(dataset_file, config_file, tmp_path, command):
    """Seeds derive from condition identity, so dropping the baseline leaves
    every LLM row byte for byte.  The model id is longer than
    ``meta_analytical``, so the report tables keep their column widths."""
    fx = write_fixtures(tmp_path, [fixture_entry("model-one", "blind", 0.5, response=r)
                                   for r in DISTINCT_RESPONSES])
    outputs = []
    for name, extra in (("with", []), ("without", ["--no-baseline"])):
        out_dir = tmp_path / name
        assert main([*command, *extra, "--dataset", dataset_file, "--config", config_file,
                     "--fixtures", fx, "--out", str(out_dir)]) == 0
        outputs.append({path: data.decode() for path, data in output_bytes(out_dir).items()})
    with_baseline, without = outputs
    assert with_baseline.keys() == without.keys()
    for path, text in with_baseline.items():
        lines = text.splitlines(keepends=True)
        llm_lines = [line for line in lines if "meta_analytical" not in line]
        assert len(llm_lines) < len(lines), path
        assert "".join(llm_lines) == without[path], path


def test_efficiency_ignores_n_queries(dataset_file, tmp_path, capsys):
    """Efficiency cells send one query each, so ``n_queries`` neither stops
    the command nor changes its outputs; elicit and cv still check it."""
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5, response=r)
                                   for r in DISTINCT_RESPONSES])
    configs, outputs = {}, []
    for n_queries in (0, 5):
        configs[n_queries] = cfg = tmp_path / f"queries{n_queries}.cfg"
        cfg.write_text(SMALL_MCMC_CONFIG + f"n_queries = {n_queries}\n", encoding="utf-8")
        out_dir = tmp_path / f"queries{n_queries}"
        assert main(["efficiency", "--model", "m1", "--strategy", "blind",
                     "--temperature", "0.5", "--rho-grid", "0.5,1.0",
                     "--n-replications", "2", "--dataset", dataset_file,
                     "--config", str(cfg), "--fixtures", fx, "--out", str(out_dir)]) == 0
        outputs.append(output_bytes(out_dir))
    assert outputs[0] == outputs[1]
    capsys.readouterr()
    out_dir = str(tmp_path / "rejected")
    assert main(["elicit", "--model", "m1", "--n-queries", "0", "--fixtures", fx,
                 "--out", out_dir]) == 2
    assert main(["cv", "--models", "m1", "--strategies", "blind", "--temperatures", "0.5",
                 "--k", "3", "--dataset", dataset_file, "--config", str(configs[0]),
                 "--fixtures", fx, "--out", out_dir]) == 2
    assert capsys.readouterr().err.count("configuration error: n_queries must be >= 1") == 2


def test_cv_empty_fold_exit_code(tmp_path, monkeypatch, capsys):
    """Three sites, one per stratum, pass k <= site count at k = 3, but each
    stratum deals its one site into fold 0."""
    sent = []
    monkeypatch.setattr(FixtureTransport, "send",
                        lambda self, request: sent.append(request))
    data = tmp_path / "three.csv"
    write_dataset(Dataset.from_rows(make_rows([1, 3, 5])), data)
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])
    out_dir = tmp_path / "out"
    assert main(["cv", "--k", "3", "--models", "m1", "--strategies", "blind",
                 "--temperatures", "0.5", "--dataset", str(data), "--fixtures", fx,
                 "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: k = 3 leaves fold(s) 1, 2 without sites: "
        "the largest stratum holds 1\n")
    assert sent == []
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error")
def test_efficiency_without_test_site_exit_code(tmp_path, monkeypatch, capsys):
    """Three sites, one per stratum: every stratum is too small to give the
    70:30 split a test site, which no setting can fix."""
    sent = []
    monkeypatch.setattr(FixtureTransport, "send",
                        lambda self, request: sent.append(request))
    data = tmp_path / "three.csv"
    write_dataset(Dataset.from_rows(make_rows([1, 3, 5])), data)
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])
    out_dir = tmp_path / "out"
    assert main(["efficiency", "--model", "m1", "--strategy", "blind",
                 "--temperature", "0.5", "--dataset", str(data), "--fixtures", fx,
                 "--out", str(out_dir)]) == 3
    assert capsys.readouterr().err == (
        "data error: the train/test split leaves the test set empty: no stratum "
        "holds 2 or more sites (sites per stratum: small 1, medium 1, large 1)\n")
    assert sent == []
    assert not out_dir.exists()


@pytest.mark.parametrize("command, audit_name, responses", [
    (["cv", "--k", "3", "--models", "m1", "--strategies", "blind",
      "--temperatures", "0.5"], "cv_elicitations.jsonl", REPLAY_RESPONSES),
    # one query per cell here, so an unparseable answer would fail the run
    (["efficiency", "--model", "m1", "--strategy", "blind", "--temperature", "0.5",
      "--rho-grid", "0.5,1.0", "--n-replications", "2"],
     "efficiency_elicitations.jsonl", DISTINCT_RESPONSES),
], ids=["cv", "efficiency"])
def test_audit_log_replays_to_identical_outputs(dataset_file, config_file, tmp_path,
                                                command, audit_name, responses):
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5, response=r)
                                   for r in responses])
    first, replay = tmp_path / "first", tmp_path / "replay"
    base = [*command, "--dataset", dataset_file, "--config", config_file, "--seed", "5"]
    assert main([*base, "--fixtures", fx, "--out", str(first)]) == 0
    audit = first / "audit" / audit_name
    assert main([*base, "--fixtures", str(audit), "--out", str(replay)]) == 0
    assert output_bytes(replay) == output_bytes(first)
    assert ((replay / "audit" / audit_name).read_text().count("\n")
            == audit.read_text().count("\n"))


def test_elicit_audit_log_replays(tmp_path, capsys):
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 1.0, response=r)
                                   for r in REPLAY_RESPONSES])
    args = ["elicit", "--model", "m1", "--temperature", "1.0"]
    assert main([*args, "--fixtures", fx, "--out", str(tmp_path / "first")]) == 0
    first = capsys.readouterr().out
    audit = tmp_path / "first" / "audit" / "elicitations.jsonl"
    assert main([*args, "--fixtures", str(audit), "--out", str(tmp_path / "replay")]) == 0
    replayed = capsys.readouterr().out
    assert "queries: 5 (4 parsed)" in first
    assert replayed == first


@pytest.mark.parametrize("line, fragment", [
    ("{not json", "invalid record"),
    ('{"request_hash": "h", "model": "m1", "temperature": 1.0, "response": "x",'
     ' "parsed": [0.5, 0.1], "error": null, "timestamp": 0.0}', "missing 'strategy'"),
], ids=["not-json", "no-strategy"])
def test_report_malformed_audit_log_exit_code(tmp_path, capsys, line, fragment):
    audit_dir = tmp_path / "out" / "audit"
    audit_dir.mkdir(parents=True)
    (audit_dir / "elicitations.jsonl").write_text("\n" + line + "\n", encoding="utf-8")
    assert main(["report", "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "elicitations.jsonl: line 2" in err
    assert fragment in err


def test_report_without_audit_exit_code(tmp_path, capsys):
    rc = main(["report", "--out", str(tmp_path / "empty")])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_report_summarizes_audit_logs(tmp_path, capsys):
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 1.0)])
    out_dir = tmp_path / "out"
    assert main(["elicit", "--fixtures", fx, "--model", "m1",
                 "--temperature", "1.0", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "m1" in out
    stats = (out_dir / "reports" / "prior_param_stats.txt").read_text()
    assert "m1" in stats
    assert (out_dir / "results" / "prior_param_stats.csv").exists()


def test_report_group_without_parsed_records_exit_code(tmp_path, capsys):
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 1.0)])
    out_dir = tmp_path / "out"
    assert main(["elicit", "--fixtures", fx, "--model", "m1",
                 "--temperature", "1.0", "--out", str(out_dir)]) == 0
    failed = {"request_hash": "h", "model": "m-unparsed", "strategy": "blind",
              "temperature": 1.0, "response": "not json", "parsed": None,
              "error": "ResponseFormatError: not json", "timestamp": 0.0}
    with open(out_dir / "audit" / "elicitations.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(failed) + "\n")
    capsys.readouterr()
    assert main(["report", "--out", str(out_dir)]) == 4
    err = capsys.readouterr().err
    assert "elicitation error" in err
    assert "m-unparsed" in err


def test_cv_rerun_replaces_audit_log(dataset_file, config_file, tmp_path, capsys):
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])
    out_dir = tmp_path / "out"
    args = ["cv", "--dataset", dataset_file, "--config", config_file,
            "--out", str(out_dir), "--k", "3", "--fixtures", fx,
            "--models", "m1", "--strategies", "blind", "--temperatures", "0.5"]
    audit = out_dir / "audit" / "cv_elicitations.jsonl"
    for _ in range(2):
        assert main(args) == 0
        assert len(audit.read_text().splitlines()) == 15  # 3 folds x 5 queries
        capsys.readouterr()
        assert main(["report", "--out", str(out_dir)]) == 0
        stats = (out_dir / "results" / "prior_param_stats.csv").read_text().splitlines()
        assert {line.split(",")[4] for line in stats[1:]} == {"15"}


def test_config_unknown_key_exit_code(dataset_file, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("chains = 4\n", encoding="utf-8")
    rc = main(["ingest", dataset_file, "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown config key" in err
    assert "chains" in err


def test_config_bad_boolean_exit_code(dataset_file, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("strict = maybe\n", encoding="utf-8")
    rc = main(["ingest", dataset_file, "--config", str(cfg)])
    assert rc == 2
    assert "expected boolean" in capsys.readouterr().err


def test_config_missing_file_exit_code(dataset_file, tmp_path, capsys):
    rc = main(["ingest", dataset_file, "--config", str(tmp_path / "none.cfg")])
    assert rc == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_flag_overrides_config(dataset_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out = {tmp_path / 'from_config'}\n", encoding="utf-8")
    flag_out = tmp_path / "from_flag"
    assert main(["ingest", dataset_file, "--config", str(cfg),
                 "--out", str(flag_out)]) == 0
    assert (flag_out / "reports" / "ingest.txt").exists()
    assert not (tmp_path / "from_config").exists()


def test_config_out_is_used_without_flag(dataset_file, tmp_path):
    cfg_out = tmp_path / "from_config"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out = {cfg_out}\n", encoding="utf-8")
    assert main(["ingest", dataset_file, "--config", str(cfg)]) == 0
    assert (cfg_out / "reports" / "ingest.txt").exists()


def test_config_comment_needs_leading_whitespace(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# header\nendpoint = http://h/v1#frag\nout = runs/a  # note\n",
                   encoding="utf-8")
    loaded = load_config(cfg)
    assert loaded.endpoint == "http://h/v1#frag"
    assert loaded.out == "runs/a"


@pytest.mark.parametrize("flag, config_line", [
    (["--n-jobs", "0"], ""), (["--n-jobs", "-3"], ""), ([], "n_jobs = 0\n")])
def test_n_jobs_below_one_exit_code(dataset_file, tmp_path, capsys, flag, config_line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_line, encoding="utf-8")
    assert main(["ingest", dataset_file, "--config", str(cfg), *flag]) == 2
    assert "n_jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("timeout", ["0", "inf", "nan"])
def test_live_mode_non_positive_timeout_exit_code(tmp_path, monkeypatch, capsys, timeout):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"timeout = {timeout}\n", encoding="utf-8")
    rc = main(["elicit", "--live", "--model", "m1", "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "timeout must be positive" in capsys.readouterr().err


def test_fixture_run_does_not_check_timeout(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("timeout = 0\n", encoding="utf-8")
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 1.0)])
    assert main(["elicit", "--fixtures", fx, "--model", "m1", "--temperature", "1.0",
                 "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command, config_line, key", [
    (["efficiency"], "train_fraction = 1.5\n", "train_fraction"),
    (["efficiency", "--n-replications", "0"], "", "n_replications"),
    # a valid level first: its cells must not be elicited before the check
    (["efficiency", "--rho-grid", "0.5,0"], "", "rho_grid"),
    (["cv", "--k", "1"], "", "k"),
    (["cv", "--k", "1000"], "", "k"),  # the dataset has 9 sites
    (["efficiency", "--rho-grid", "0.5,x"], "", "--rho-grid"),
    (["cv", "--temperatures", "a"], "", "--temperatures"),
    (["efficiency", "--rho-grid", ""], "", "rho_grid"),
    (["efficiency", "--rho-grid", "0.5,0.5"], "", "rho_grid"),
    (["cv", "--temperatures", "1.0,1.0"], "", "temperatures"),
    (["cv", "--models", "m1,m1"], "", "models"),
    (["cv", "--strategies", "blind,blind"], "", "strategies"),
    (["efficiency"], "backoff_base = nan\n", "backoff_base"),
    (["efficiency"], "backoff_base = inf\n", "backoff_base"),
], ids=["train_fraction", "n_replications", "rho_grid", "k_below_2", "k_above_sites",
        "rho_grid_not_a_number", "temperatures_not_a_number", "rho_grid_empty",
        "rho_grid_repeated", "temperatures_repeated", "models_repeated",
        "strategies_repeated", "backoff_base_nan", "backoff_base_inf"])
def test_out_of_range_experiment_setting_exit_code(
        dataset_file, tmp_path, monkeypatch, capsys, command, config_line, key):
    sent = []
    monkeypatch.setattr(FixtureTransport, "send",
                        lambda self, request: sent.append(request))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_MCMC_CONFIG + config_line, encoding="utf-8")
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])
    out_dir = tmp_path / "out"
    llm = (["--models", "m1", "--strategies", "blind", "--temperatures", "0.5"]
           if command[0] == "cv" else ["--model", "m1", "--temperature", "0.5"])
    # the case's own flags come last, so they override the defaults in llm
    rc = main([command[0], *llm, *command[1:], "--dataset", dataset_file,
               "--config", str(cfg), "--out", str(out_dir), "--fixtures", fx])
    assert rc == 2
    assert f"configuration error: {key} " in capsys.readouterr().err
    assert sent == []
    assert not (out_dir / "audit").exists()


# each setting given once as a flag and once as a config line must end alike
@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("command, flag, config_line", [
    ("elicit", ["--n-queries", "0"], "n_queries = 0"),
    ("cv", ["--temperatures", "3"], "temperatures = 3"),
    # every temperature is checked, not only the first
    ("cv", ["--temperatures", "0.5,3"], "temperatures = 0.5, 3"),
    ("cv", ["--k", "x"], "k = x"),
], ids=["n_queries", "temperature", "second_temperature", "k_not_an_integer"])
def test_flag_and_file_reject_alike(dataset_file, tmp_path, monkeypatch, capsys,
                                    command, flag, config_line, source):
    sent = []
    monkeypatch.setattr(FixtureTransport, "send",
                        lambda self, request: sent.append(request))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_MCMC_CONFIG + (config_line + "\n" if source == "file" else ""),
                   encoding="utf-8")
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])
    out_dir = tmp_path / "out"
    base = (["--model", "m1"] if command == "elicit"
            else ["--models", "m1", "--dataset", dataset_file])
    rc = main([command, *base, *(flag if source == "flag" else []),
               "--config", str(cfg), "--out", str(out_dir), "--fixtures", fx])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: ")
    assert sent == []
    assert not (out_dir / "audit").exists()


@pytest.mark.parametrize("flag, config_line", [
    (["--models", "m1,"], "models = m1,"),
    (["--strategies", "blind,"], "strategies = blind,"),
    (["--models", ""], "models ="),  # no models: the baseline only
], ids=["models_trailing_comma", "strategies_trailing_comma", "models_empty"])
def test_flag_and_file_lists_parse_alike(dataset_file, tmp_path, flag, config_line):
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])
    base = ["cv", "--dataset", dataset_file, "--k", "3", "--fixtures", fx,
            "--temperatures", "0.5"]
    outputs = []
    for source in ("flag", "file"):
        cfg = tmp_path / f"{source}.cfg"
        cfg.write_text(SMALL_MCMC_CONFIG + "models = m1\nstrategies = blind\n"
                       + (config_line + "\n" if source == "file" else ""),
                       encoding="utf-8")
        out_dir = tmp_path / source
        assert main([*base, *(flag if source == "flag" else []),
                     "--config", str(cfg), "--out", str(out_dir)]) == 0
        audit = out_dir / "audit" / "cv_elicitations.jsonl"
        outputs.append((output_bytes(out_dir), audit.exists()))
    assert outputs[0] == outputs[1]


RESOLVE_CONFIG = """dataset = file.csv
k = 4
models = f1, f2
temperatures = 0.1, 0.2
rho_grid = 0.5
n_replications = 7
n_queries = 9
"""


@pytest.mark.parametrize("argv, expected", [
    (["cv", "--k", "3", "--models", "m1,", "--temperatures", "0.5, 1",
      "--dataset", "flag.csv"],
     {"k": 3, "models": ("m1",), "temperatures": (0.5, 1.0), "dataset": "flag.csv",
      "rho_grid": (0.5,), "n_replications": 7, "n_queries": 9}),
    (["efficiency", "--model", "m2", "--temperature", "0.7", "--rho-grid", "0.25,1",
      "--n-replications", "2"],
     {"models": ("m2",), "temperatures": (0.7,), "rho_grid": (0.25, 1.0),
      "n_replications": 2, "k": 4, "dataset": "file.csv"}),
    (["elicit", "--n-queries", "1"],
     {"n_queries": 1, "models": ("f1", "f2"), "temperatures": (0.1, 0.2)}),
    (["ingest", "flag.csv"], {"dataset": "flag.csv", "k": 4}),
], ids=["cv", "efficiency", "elicit", "ingest"])
def test_resolve_config_lays_flags_over_file(tmp_path, argv, expected):
    path = tmp_path / "run.cfg"
    path.write_text(RESOLVE_CONFIG, encoding="utf-8")
    cfg, _ = _resolve_config(build_parser().parse_args([*argv, "--config", str(path)]))
    assert {key: getattr(cfg, key) for key in expected} == expected


def test_single_condition_commands_pick_from_lists(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(RESOLVE_CONFIG + "strategies = disease_informed, blind\n",
                    encoding="utf-8")
    for command, temperature, n_queries in (("elicit", 0.1, 9), ("efficiency", 0.2, 1)):
        _, conditions = _resolve_config(build_parser().parse_args(
            [command, "--config", str(path)]))
        assert [(c.elicit.model_id, c.strategy, c.elicit.temperature, c.elicit.n_queries)
                for c in conditions] == \
            [("f1", PromptStrategy.DISEASE_INFORMED, temperature, n_queries)]


def test_config_non_utf8_file_exit_code(dataset_file, tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("out = résultats\n".encode("latin-1"))
    assert main(["ingest", dataset_file, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "latin1.cfg" in err and "UTF-8" in err


@pytest.mark.parametrize("command", ["elicit", "cv", "report"])
def test_non_utf8_jsonl_exit_code(dataset_file, tmp_path, capsys, command):
    out_dir = tmp_path / "out"
    path = (out_dir / "audit" if command == "report" else tmp_path) / "latin1.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    # line 2 holds a Latin-1 byte, so the error comes before any record is read
    path.write_bytes(b"\n" + '{"response": "é"}\n'.encode("latin-1"))
    argv = {"elicit": ["--model", "m1", "--fixtures", str(path)],
            "cv": ["--models", "m1", "--dataset", dataset_file, "--fixtures", str(path)],
            "report": []}[command]
    assert main([command, *argv, "--out", str(out_dir)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("elicitation error: ")
    assert "latin1.jsonl: line 2" in err


# sha256 over the names and bytes of results/, reports/ and draws/ after one
# command on PINNED_DATASET; recorded with numpy 2.4.6
PINNED_OUTPUT_DIGESTS = {
    "fit": (["fit"], "0b53fa1acf95305bf73ee4ed293ae43153c846be7f31da39fbb21f3bc4e5f27c"),
    "cv": (["cv", "--k", "3", "--models", "m1", "--strategies", "blind",
            "--temperatures", "0.5"],
           "3d953fc8d3d32ba72c5082b997de892d5522b382958d3482d75c68379d7658b4"),
    "efficiency": (["efficiency", "--model", "m1", "--strategy", "blind",
                    "--temperature", "0.5", "--rho-grid", "0.5,1.0",
                    "--n-replications", "2"],
                   "fb70c2b555608c1b5c612a6d0d751940fd8a1fade9e3783d7f8965291a3e0dca"),
}
# 70 sites, one more than an R-hat block; 69 draws, one block of draws and
# a partial one; one site id needs csv quoting in draws.csv
PINNED_DATASET = Dataset.from_rows(make_rows([2, 3, 4] * 23, seed=8)
                                   + [('a,"b', "q1", 4), ('a,"b', "q2", 0)])
PINNED_CONFIG = "n_chains = 3\nn_warmup = 40\nn_draws = 69\nbackoff_base = 0.001\n"


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUT_DIGESTS))
def test_output_bytes_pinned(tmp_path, capsys, name):
    """A change that claims to keep outputs must reproduce every byte the
    commands write to results/, reports/ and draws/."""
    command, expected = PINNED_OUTPUT_DIGESTS[name]
    data, cfg = tmp_path / "pinned.csv", tmp_path / "pinned.cfg"
    write_dataset(PINNED_DATASET, data)
    cfg.write_text(PINNED_CONFIG, encoding="utf-8")
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5, response=r)
                                   for r in DISTINCT_RESPONSES])
    out_dir = tmp_path / "out"
    assert main([*command, "--dataset", str(data), "--config", str(cfg), "--seed", "3",
                 "--fixtures", fx, "--out", str(out_dir)]) == 0
    digest = hashlib.sha256()
    for kind in ("results", "reports", "draws"):
        if (out_dir / kind).is_dir():
            for path in sorted((out_dir / kind).iterdir()):
                digest.update(f"{kind}/{path.name}\n".encode())
                digest.update(path.read_bytes())
    assert digest.hexdigest() == expected, (
        f"{name} outputs changed: sha256 {digest.hexdigest()} (numpy {np.__version__}; "
        "the digests were recorded with numpy 2.4.6 and depend on its Generator bitstream)")

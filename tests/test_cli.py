from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from aebayes import _floatrepr, cli
from aebayes.cli import _resolve_config, build_parser, load_config, main
from aebayes.data import Dataset
from aebayes.elicitation import (ChatRequest, FixtureTransport, PromptStrategy,
                                 TransientTransportError, build_prompt)
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


def small_config(extra: str = "") -> str:
    """SMALL_MCMC_CONFIG with the lines of ``extra`` laid over it, each in
    place of a line that sets the same key: a config file sets a key once."""
    by_key = {}
    for line in [*SMALL_MCMC_CONFIG.splitlines(), *extra.splitlines()]:
        by_key[line.partition("=")[0].strip()] = line
    return "\n".join(by_key.values()) + "\n"


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


# one audit record, as ``elicit`` writes it
PARSED_RECORD = {"request_hash": "h", "model": "m1", "strategy": "blind",
                 "temperature": 0.5, "response": '{"alpha_rate": 0.5, "beta_rate": 0.1}',
                 "parsed": [0.5, 0.1], "error": None, "timestamp": 0.0}


def output_bytes(out_dir):
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for kind in ("results", "reports") if (out_dir / kind).is_dir()
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
    """A batch whose every query fails exits 4, and its failed records are
    appended to the audit log like any others."""
    fx = write_fixtures(
        tmp_path, [fixture_entry("m1", "blind", 1.0, response="not json")])
    out_dir = tmp_path / "out"
    for runs in (1, 2):
        rc = main(["elicit", "--fixtures", fx, "--model", "m1",
                   "--temperature", "1.0", "--out", str(out_dir)])
        assert rc == 4
        assert "elicitation error" in capsys.readouterr().err
        audit = (out_dir / "audit" / "elicitations.jsonl").read_text().splitlines()
        assert len(audit) == 5 * runs
        assert all(r["parsed"] is None and r["error"] and r["response"] == "not json"
                   for r in map(json.loads, audit))


@pytest.mark.parametrize("command, fixtures, audit_name, n_records", [
    # the second condition (T=1.0) has no recording: its batch of 5 fails
    # after the first condition's 2 folds x 5 queries
    (["cv", "--k", "2", "--temperatures", "0.1,1.0", "--strategies", "blind",
      "--models", "m1", "--no-baseline"],
     [fixture_entry("m1", "blind", 0.1)] * 3, "cv_elicitations.jsonl", 10 + 5),
    # one query per cell: the first cell parses, the second does not
    (["efficiency", "--model", "m1", "--strategy", "blind", "--temperature", "0.1",
      "--rho-grid", "0.5,1.0", "--n-replications", "2"],
     [fixture_entry("m1", "blind", 0.1), fixture_entry("m1", "blind", 0.1, "not json")],
     "efficiency_elicitations.jsonl", 1 + 1),
], ids=["cv", "efficiency"])
def test_experiment_failed_batch_keeps_audit_log(dataset_file, config_file, tmp_path,
                                                 capsys, command, fixtures, audit_name,
                                                 n_records):
    """A batch whose every query fails exits 4; the audit log keeps every
    record sent before it as well as the failed batch's."""
    out_dir = tmp_path / "out"
    rc = main([*command, "--dataset", dataset_file, "--config", config_file,
               "--fixtures", write_fixtures(tmp_path, fixtures), "--out", str(out_dir)])
    assert rc == 4
    assert capsys.readouterr().err.startswith("elicitation error: all ")
    audit = [json.loads(line) for line in
             (out_dir / "audit" / audit_name).read_text().splitlines()]
    assert len(audit) == n_records
    assert audit[0]["parsed"] is not None and audit[-1]["parsed"] is None
    assert not (out_dir / "results").exists()


def test_elicit_non_text_fixture_response_exit_code(tmp_path, capsys):
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 1.0, response=5)])
    rc = main(["elicit", "--fixtures", fx, "--model", "m1",
               "--temperature", "1.0", "--out", str(tmp_path / "out")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("elicitation error: ")
    assert "fixtures.jsonl: line 1" in err


@pytest.mark.parametrize("temperature", [True, "1.0"], ids=["bool", "string"])
def test_elicit_fixture_temperature_not_a_number_exit_code(tmp_path, capsys, temperature):
    """A line's temperature is a real number that is not a bool; any other
    makes the line malformed, not a line recorded at 1.0."""
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", temperature)])
    rc = main(["elicit", "--fixtures", fx, "--model", "m1",
               "--temperature", "1.0", "--out", str(tmp_path / "out")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "fixtures.jsonl: line 1" in err
    assert f"non-numeric value for temperature: {temperature!r}" in err


def test_live_mode_requires_api_key(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    rc = main(["elicit", "--live", "--model", "m1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "LLM_API_KEY" in capsys.readouterr().err


def test_live_mode_without_requests_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    monkeypatch.setitem(sys.modules, "requests", None)  # import requests fails
    out_dir = tmp_path / "out"
    rc = main(["elicit", "--live", "--model", "m1", "--out", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "aebayes[live]" in err
    assert not out_dir.exists()  # no query was sent


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


def test_interrupted_draws_export_keeps_previous_draws(dataset_file, config_file,
                                                       tmp_path, monkeypatch):
    """An export interrupted after a partial line leaves the previous run's
    draws.csv byte for byte, and no partial temporary file beside it."""
    argv = ["fit", "--dataset", dataset_file, "--config", config_file,
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    draws_path = tmp_path / "out" / "draws" / "draws.csv"
    before = draws_path.read_bytes()

    def interrupted_export(draws, path, include_hyperparams=True):
        Path(path).write_text("chain,draw,parameter,value\n0,0,alp", encoding="utf-8")
        raise KeyboardInterrupt

    monkeypatch.setattr("aebayes.sampler.export_draws", interrupted_export)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert draws_path.read_bytes() == before
    assert sorted(p.name for p in draws_path.parent.iterdir()) == ["draws.csv"]


@pytest.mark.parametrize("failing", ["child", "parent", "fork"])
def test_failed_export_share_leaves_no_child_or_part(dataset_file, tmp_path, monkeypatch,
                                                     failing):
    """A share of the rows that fails in its forked child makes ``fit``
    raise, naming the chain and draw of the child's first row; an interrupt
    while this process formats its own share, or one that arrives the moment
    the child is forked, kills the child still at work.  Either way the previous draws.csv stays, with no
    temporary or part file beside it, and every child has been reaped."""
    config = tmp_path / "run.cfg"
    # 260 rows, three export blocks of them in each process
    config.write_text("n_chains = 2\nn_warmup = 40\nn_draws = 130\n", encoding="utf-8")
    argv = ["fit", "--dataset", dataset_file, "--config", str(config),
            "--out", str(tmp_path / "out")]
    monkeypatch.setattr("aebayes.sampler._can_fork", lambda: True)
    assert main(argv) == 0
    draws_path = tmp_path / "out" / "draws" / "draws.csv"
    before = draws_path.read_bytes()

    repr_bytes, parent, calls = _floatrepr.repr_bytes, os.getpid(), []

    def failing_repr_bytes(x):
        in_parent = os.getpid() == parent
        if failing == "child" and not in_parent:
            raise ValueError("formatting failed")
        if failing in ("parent", "fork") and not in_parent:
            time.sleep(60)  # still at work when the parent is interrupted
        if failing == "parent":
            calls.append(None)
            if len(calls) == 2:
                raise KeyboardInterrupt
        return repr_bytes(x)

    monkeypatch.setattr(_floatrepr, "repr_bytes", failing_repr_bytes)
    if failing == "fork":
        fork = os.fork

        def interrupted_fork():
            pid = fork()
            if pid:
                os.kill(os.getpid(), signal.SIGINT)
            return pid

        monkeypatch.setattr(os, "fork", interrupted_fork)
    if failing == "child":
        with pytest.raises(RuntimeError, match=r"export from chain 1, draw 0 on failed"):
            main(argv)
    else:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    assert draws_path.read_bytes() == before
    assert sorted(p.name for p in draws_path.parent.iterdir()) == ["draws.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _strict_fit(*argv: str) -> subprocess.CompletedProcess:
    """``aebayes fit`` in a fresh interpreter that turns numpy's
    RuntimeWarnings into errors, its draws exported by two processes."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import sys\n"
              "from aebayes import sampler\n"
              "from aebayes.cli import main\n"
              "sampler._can_fork = lambda: True\n"
              "sys.exit(main(['fit', *sys.argv[1:]]))\n")
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script,
                           *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})


def test_fit_reports_once_with_a_forked_export(dataset_file, config_file, tmp_path):
    """The forked export's child leaves without flushing what this process
    buffered or running its caller's code, so the report reaches stdout
    once."""
    run = _strict_fit("--dataset", dataset_file, "--config", config_file,
                      "--out", str(tmp_path / "out"))
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("draws written to") == 1
    assert run.stdout.count("parameter") == 1


def test_fit_flags_overflowing_rhat(dataset_file, config_file, tmp_path):
    """A hyperprior rate of 1e-300 starts alpha near 1e300, where the chains
    stay; their variances overflow, and R-hat is nan and flagged, with no
    numpy warning."""
    run = _strict_fit("--dataset", dataset_file, "--config", config_file,
                      "--out", str(tmp_path / "out"), "--alpha-rate", "1e-300")
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    prefix = "warning: rhat >= 1.1 for: "
    [flagged] = [line for line in run.stdout.splitlines() if line.startswith(prefix)]
    assert "alpha" in flagged.removeprefix(prefix).split(", ")


@pytest.mark.parametrize("response", ['{"alpha_rate": 1e32, "beta_rate": 0.1}',
                                      '{"alpha_rate": 0.1, "beta_rate": 1e32}',
                                      '{"alpha_rate": 1e308, "beta_rate": 0.1}'],
                         ids=["alpha-1e32", "beta-1e32", "alpha-1e308"])
def test_cv_extreme_elicited_rate_exit_code(dataset_file, tmp_path, capsys, response):
    """An elicited rate from about 1e31 up, however large a finite one,
    leaves the posterior's mass on the quadrature grid's edge: exit 5 with
    one line, and no numpy warning on the way."""
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 1.0, response=response)])
    rc = main(["cv", "--dataset", dataset_file, "--fixtures", fx, "--k", "3",
               "--models", "m1", "--strategies", "blind", "--temperatures", "1.0",
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert (rc, err) == (5, "numerical error: quadrature grid leaves 1 of the mass "
                            "on its edge\n")


def test_write_atomic_failure_keeps_previous_file(tmp_path):
    """A write that fails after its temporary file was created (here a lone
    surrogate that UTF-8 cannot encode) leaves the previous file and removes
    the temporary one."""
    path = tmp_path / "report.txt"
    cli._write_atomic(path, "previous\n")
    with pytest.raises(UnicodeEncodeError):
        cli._write_atomic(path, "partial \ud800\n")
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt"]


def test_fit_invalid_prior_rate_exit_code(dataset_file, tmp_path, capsys):
    rc = main(["fit", "--dataset", dataset_file, "--out", str(tmp_path / "out"),
               "--alpha-rate", "-1.0"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("flags, config_line", [
    (["--alpha-rate", "inf"], ""),
    (["--beta-rate", "nan"], ""),
    (["--freeze", "inf", "1"], ""),
    (["--freeze", "1", "nan"], ""),
    (["--seed", "-1"], ""),
], ids=["alpha_rate_inf", "beta_rate_nan", "freeze_inf", "freeze_nan", "seed_negative"])
def test_fit_non_finite_setting_exit_code(dataset_file, tmp_path, capsys, flags, config_line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(small_config(config_line), encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = main(["fit", "--dataset", dataset_file, "--config", str(cfg),
               "--out", str(out_dir), *flags])
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (out_dir / "draws").exists()


@pytest.mark.parametrize("command", ["ingest", "fit"])
@pytest.mark.parametrize("count, code", [(2 ** 53, 0), (2 ** 53 + 1, 3), (10 ** 20, 3)],
                         ids=["bound", "bound_plus_1", "1e20"])
def test_site_total_bound_exit_code(tmp_path, config_file, capsys, command, count, code):
    """A site total above 2**53, which float64 cannot hold exactly, is a data
    error naming its line, not a traceback or a rounded total."""
    data = tmp_path / "big.csv"
    data.write_text(DATASET + f"big,q1,{count}\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    argv = {"ingest": ["ingest", str(data)],
            "fit": ["fit", "--dataset", str(data), "--config", config_file]}[command]
    assert main([*argv, "--out", str(out_dir)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith(f"data error: {data}: line 31: ")
        assert "above 2**53" in captured.err
    elif command == "ingest":
        assert f"range 0-{count}" in captured.out
    else:
        assert (out_dir / "draws" / "draws.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_fit_numerical_failure_exit_code(dataset_file, config_file, tmp_path, capsys):
    # a Gamma(1e308, 1e-300) site rate overflows to inf
    out_dir = tmp_path / "out"
    rc = main(["fit", "--dataset", dataset_file, "--config", config_file,
               "--out", str(out_dir), "--no-data", "--freeze", "1e308", "1e-300"])
    assert rc == 5
    assert capsys.readouterr().err.startswith("numerical error: ")
    assert not (out_dir / "draws" / "draws.csv").exists()


def test_fit_non_finite_start_exit_code(dataset_file, tmp_path, capsys):
    """A beta rate of 4e-309 draws each chain's start of beta as inf, where
    the log posterior is nan: exit 5 with one line before the first step,
    not numpy warnings and, once the warmup reshapes a proposal from nan
    moves, a traceback."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(small_config("n_warmup = 100"), encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = main(["fit", "--dataset", dataset_file, "--config", str(cfg),
               "--out", str(out_dir), "--beta-rate", "4e-309"])
    assert rc == 5
    assert capsys.readouterr().err == ("numerical error: the log posterior at the start "
                                       "of chain(s) 0, 1 is not finite\n")
    assert not (out_dir / "draws" / "draws.csv").exists()


@pytest.mark.parametrize("config_lines, ran", [
    ("n_chains = 1", "1 chain(s) of 40 draw(s)"),
    ("n_draws = 3", "2 chain(s) of 3 draw(s)"),
], ids=["one_chain", "three_draws"])
def test_fit_says_when_it_computed_no_rhat(dataset_file, tmp_path, capsys,
                                           config_lines, ran):
    """A fit too short for split R-hat says so in its report and on stdout,
    rather than leaving a bare table header."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(small_config(config_lines), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["fit", "--dataset", dataset_file, "--config", str(cfg),
                 "--out", str(out_dir)]) == 0
    report = (out_dir / "reports" / "fit_diagnostics.txt").read_text()
    assert report.splitlines()[3:] == [
        "warning: rhat not computed: split R-hat needs 2 or more chains of 4 or more "
        f"draws, and this fit ran {ran}"]
    assert capsys.readouterr().out.startswith(report)


def test_cv_posterior_off_the_grid_exit_code(tmp_path, monkeypatch, capsys):
    """Elicited rates of 1e-6 on a set where every count is 3 leave the
    posterior's mass beyond the quadrature box: exit 5, no results.  The
    run stops at the first cell, so it sends that cell's 5 queries only,
    and its audit log keeps their records."""
    served = []
    send = FixtureTransport.send
    monkeypatch.setattr(FixtureTransport, "send",
                        lambda self, request: served.append(request) or send(self, request))
    data = tmp_path / "equi.csv"
    write_dataset(Dataset.from_rows([(f"e{j}", f"q{j}_{i}", 3) for j in range(20)
                                     for i in range(1 + j % 4)]), data)
    fx = write_fixtures(tmp_path, [fixture_entry(
        "m1", "blind", 0.5, response='{"alpha_rate": 1e-6, "beta_rate": 1e-6}')])
    out_dir = tmp_path / "out"
    rc = main(["cv", "--dataset", str(data), "--fixtures", fx, "--out", str(out_dir),
               "--k", "2", "--no-baseline", "--models", "m1", "--strategies", "blind",
               "--temperatures", "0.5"])
    assert rc == 5
    assert capsys.readouterr().err.startswith("numerical error: quadrature grid leaves ")
    assert not (out_dir / "results").exists()
    audit = audit_records(out_dir / "audit" / "cv_elicitations.jsonl")
    assert [r["parsed"] for r in audit] == [[1e-6, 1e-6]] * 5
    assert len(served) == 5


def test_cv_baseline_only(dataset_file, tmp_path, capsys):
    cfg = tmp_path / "cv.cfg"
    cfg.write_text(small_config("models =\n"), encoding="utf-8")
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


def test_warning_prints_one_line(config_file, tmp_path, capsys):
    """A warning reaches stderr as one ``warning:`` line, without the source
    line that raised it."""
    data = tmp_path / "one_small.csv"
    write_dataset(Dataset.from_rows(make_rows([1] + [3] * 4 + [8] * 4)), data)
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 1.0)])
    assert main(["efficiency", "--dataset", str(data), "--config", config_file,
                 "--out", str(tmp_path / "out"), "--fixtures", fx, "--model", "m1",
                 "--strategy", "blind", "--temperature", "1.0",
                 "--rho-grid", "1.0", "--n-replications", "1"]) == 0
    assert capsys.readouterr().err == (
        "warning: stratum 'small' has 1 site(s); assigning all to train\n")


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
        cfg.write_text(small_config(f"n_queries = {n_queries}\n"), encoding="utf-8")
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


def test_efficiency_without_test_site_keeps_the_last_run(tmp_path, capsys):
    """A run whose split has no test site exits before it touches out/, so
    the last run's four files stay as they were."""
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])
    out_dir = tmp_path / "out"
    argv = ["efficiency", "--model", "m1", "--strategy", "blind", "--temperature", "0.5",
            "--rho-grid", "1.0", "--n-replications", "1", "--fixtures", fx,
            "--out", str(out_dir)]
    for name, sizes in (("nine", [1, 3, 5] * 3), ("three", [1, 3, 5])):
        write_dataset(Dataset.from_rows(make_rows(sizes)), tmp_path / f"{name}.csv")
    assert main([*argv, "--dataset", str(tmp_path / "nine.csv")]) == 0
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    assert len(files) == 4
    before = [(p.read_bytes(), p.stat().st_mtime_ns) for p in files]
    capsys.readouterr()
    assert main([*argv, "--dataset", str(tmp_path / "three.csv")]) == 3
    assert capsys.readouterr().err.startswith("data error: the train/test split leaves "
                                              "the test set empty")
    assert sorted(p for p in out_dir.rglob("*") if p.is_file()) == files
    assert [(p.read_bytes(), p.stat().st_mtime_ns) for p in files] == before


def test_efficiency_warns_of_a_one_site_stratum_once(tmp_path, capsys):
    """A stratum of one site goes to train, with one warning line."""
    data = tmp_path / "one_large.csv"
    write_dataset(Dataset.from_rows(make_rows([1, 2, 1, 3, 4, 3, 5])), data)
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])
    assert main(["efficiency", "--model", "m1", "--strategy", "blind",
                 "--temperature", "0.5", "--rho-grid", "1.0", "--n-replications", "1",
                 "--dataset", str(data), "--fixtures", fx,
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == (
        "warning: stratum 'large' has 1 site(s); assigning all to train\n")


class ScriptedTransport:
    """A live session as a script: each request takes the next step, an
    answer to return or an exception to raise."""

    def __init__(self, steps):
        self.steps = iter(steps)

    def send(self, request):
        step = next(self.steps)
        if isinstance(step, BaseException):
            raise step
        return step


def _transient():
    return TransientTransportError("503 from the endpoint")


# an answer after two transient failures, then an unparseable answer, then
# retries exhausted: six transient failures where max_retries is 5
RECOVERED = [_transient(), _transient(), DISTINCT_RESPONSES[1]]
UNPARSEABLE = ["not json"]
EXHAUSTED = [_transient() for _ in range(6)]
FAILING_BATCH = [DISTINCT_RESPONSES[0], *RECOVERED, *UNPARSEABLE, *EXHAUSTED,
                 DISTINCT_RESPONSES[2]]


def audit_records(path):
    """The records of an audit log without their timestamps."""
    return [{k: v for k, v in json.loads(line).items() if k != "timestamp"}
            for line in path.read_text(encoding="utf-8").splitlines()]


def replay_session(monkeypatch, tmp_path, argv, steps, audit_name):
    """Run ``argv`` once against the scripted session, then once against its
    own audit log as the fixture file; both runs must end alike, with the
    same ``results/`` and ``reports/`` bytes and the same audit records,
    timestamps aside.  Returns the exit code."""
    first, replay = tmp_path / "first", tmp_path / "replay"
    with monkeypatch.context() as m:
        m.setattr(cli, "_make_transport", lambda cfg: ScriptedTransport(steps))
        code = main([*argv, "--out", str(first)])
    audit = first / "audit" / audit_name
    assert main([*argv, "--fixtures", str(audit), "--out", str(replay)]) == code
    assert output_bytes(replay) == output_bytes(first)
    assert audit_records(replay / "audit" / audit_name) == audit_records(audit)
    return code


@pytest.mark.parametrize("command, audit_name, steps, code", [
    (["cv", "--k", "3", "--models", "m1", "--strategies", "blind",
      "--temperatures", "0.5"], "cv_elicitations.jsonl",
     # three folds of five queries each
     [*FAILING_BATCH, *DISTINCT_RESPONSES, *RECOVERED, DISTINCT_RESPONSES[0],
      *DISTINCT_RESPONSES[:2], *RECOVERED, *DISTINCT_RESPONSES[1:]], 0),
    # one query per cell, so only a transient failure leaves the run going
    (["efficiency", "--model", "m1", "--strategy", "blind", "--temperature", "0.5",
      "--rho-grid", "0.5,1.0", "--n-replications", "2"], "efficiency_elicitations.jsonl",
     [*RECOVERED, *DISTINCT_RESPONSES], 0),
    (["efficiency", "--model", "m1", "--strategy", "blind", "--temperature", "0.5",
      "--rho-grid", "0.5,1.0", "--n-replications", "2"], "efficiency_elicitations.jsonl",
     [*RECOVERED, *DISTINCT_RESPONSES[:2], *EXHAUSTED], 4),
    (["efficiency", "--model", "m1", "--strategy", "blind", "--temperature", "0.5",
      "--rho-grid", "0.5,1.0", "--n-replications", "2"], "efficiency_elicitations.jsonl",
     [*RECOVERED, *DISTINCT_RESPONSES[:2], *UNPARSEABLE], 4),
], ids=["cv", "efficiency", "efficiency_exhausted", "efficiency_unparseable"])
def test_audit_log_replays_to_identical_outputs(dataset_file, config_file, tmp_path,
                                                monkeypatch, command, audit_name, steps,
                                                code):
    """A session with transport failures, exhausted retries and unparseable
    answers replays exactly from its own audit log, a run that stops on a
    failed batch included."""
    argv = [*command, "--dataset", dataset_file, "--config", config_file, "--seed", "5"]
    assert replay_session(monkeypatch, tmp_path, argv, steps, audit_name) == code


def test_elicit_audit_log_replays(tmp_path, monkeypatch, capsys):
    argv = ["elicit", "--model", "m1", "--temperature", "1.0", "--config",
            str(tmp_path / "run.cfg")]
    (tmp_path / "run.cfg").write_text("backoff_base = 0.001\n", encoding="utf-8")
    assert replay_session(monkeypatch, tmp_path, argv, FAILING_BATCH,
                          "elicitations.jsonl") == 0
    first, replayed = capsys.readouterr().out.split("model m1", 2)[1:]
    assert "queries: 5 (3 parsed)" in first
    assert replayed == first


@pytest.mark.parametrize("command, audit_name", [
    (["elicit", "--model", "m1", "--temperature", "0.5"], "elicitations.jsonl"),
    (["cv", "--k", "3", "--models", "m1", "--strategies", "blind",
      "--temperatures", "0.5"], "cv_elicitations.jsonl"),
], ids=["elicit", "cv"])
def test_interrupted_run_keeps_audit_log(dataset_file, config_file, tmp_path,
                                         monkeypatch, command, audit_name):
    """A run interrupted at its third query leaves the two records sent
    before it in the audit log."""
    steps = [*DISTINCT_RESPONSES[:2], KeyboardInterrupt()]
    monkeypatch.setattr(cli, "_make_transport", lambda cfg: ScriptedTransport(steps))
    out_dir = tmp_path / "out"
    extra = ["--dataset", dataset_file] if command[0] == "cv" else []
    with pytest.raises(KeyboardInterrupt):
        main([*command, *extra, "--config", config_file, "--out", str(out_dir)])
    audit = audit_records(out_dir / "audit" / audit_name)
    assert [r["response"] for r in audit] == DISTINCT_RESPONSES[:2]
    assert not (out_dir / "results").exists()


@pytest.mark.parametrize("line, fragment", [
    ("{not json", "invalid record"),
    ('{"request_hash": "h", "model": "m1", "temperature": 1.0, "response": "x",'
     ' "parsed": [0.5, 0.1], "error": null, "timestamp": 0.0}', "missing 'strategy'"),
    ("[" * 100_000, "invalid record"),
], ids=["not-json", "no-strategy", "nested-too-deep"])
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


@pytest.mark.filterwarnings("always::RuntimeWarning")
def test_report_rates_near_the_float_maximum(tmp_path, capsys):
    """A group of three 1e308 alpha rates overflows numpy's sum and sum of
    squares; ``report`` still exits 0 without a warning, with a finite mean
    within the group's range and an SD of 0.0, and its text table shows
    the rate in exponent form rather than as a 309-digit number."""
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 1.0,
                                                 response='{"alpha_rate": 1e308, '
                                                          '"beta_rate": 0.1}')])
    out_dir = tmp_path / "out"
    assert main(["elicit", "--fixtures", fx, "--model", "m1", "--temperature", "1.0",
                 "--n-queries", "3", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert "warning:" not in captured.out + captured.err
    with open(out_dir / "results" / "prior_param_stats.csv", newline="",
              encoding="utf-8") as fh:
        [alpha] = [row for row in csv.DictReader(fh) if row["parameter"] == "alpha_rate"]
    assert alpha["n"] == "3"
    assert float(alpha["min"]) <= float(alpha["mean"]) <= float(alpha["max"]) == 1e308
    assert float(alpha["sd"]) == 0.0
    assert "1.000e+308" in (out_dir / "reports" / "prior_param_stats.txt").read_text()


def test_report_mean_of_equal_rates_is_the_rate(tmp_path, capsys):
    """Three equal answers of 0.4 report a mean of 0.4, equal to their min
    and max, as ``elicit`` aggregates them, and an SD of 0.0; a plain float
    mean of them is 0.4000000000000001, and the SD about it 6.8e-17."""
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 1.0,
                                                 response='{"alpha_rate": 0.4, '
                                                          '"beta_rate": 0.4}')])
    out_dir = tmp_path / "out"
    assert main(["elicit", "--fixtures", fx, "--model", "m1", "--temperature", "1.0",
                 "--n-queries", "3", "--out", str(out_dir)]) == 0
    assert main(["report", "--out", str(out_dir)]) == 0
    with open(out_dir / "results" / "prior_param_stats.csv", newline="",
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["mean"], row["min"], row["max"]) for row in rows] == [("0.4",) * 3] * 2
    assert [row["sd"] for row in rows] == ["0.0"] * 2


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


def _request_hash(temperature):
    """The hash of the request for (m1, blind, ``temperature``)."""
    return ChatRequest("m1", build_prompt(PromptStrategy.BLIND), temperature).request_hash()


def _audit_line(**fields):
    """One audit line for (m1, blind, 0.5), as ``elicit`` writes it."""
    return {"request_hash": _request_hash(0.5), "model": "m1", "strategy": "blind",
            "temperature": 0.5, "response": None, "parsed": None, "error": None,
            "timestamp": 0.0, **fields}


@pytest.mark.parametrize("temperature", [math.nan, -3, 2.5], ids=["nan", "negative", "above_2"])
def test_report_temperature_outside_the_batch_range_exit_code(tmp_path, capsys, temperature):
    """A line recorded at a temperature no batch can request, one outside
    (0, 2], is malformed: ``report`` names its file and line, rather than
    listing it as a group of its own."""
    out_dir = tmp_path / "out"
    (out_dir / "audit").mkdir(parents=True)
    lines = [_audit_line(response=PARSED_RECORD["response"]),
             _audit_line(response=PARSED_RECORD["response"], temperature=temperature)]
    (out_dir / "audit" / "elicitations.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    assert main(["report", "--out", str(out_dir)]) == 4
    err = capsys.readouterr().err
    assert "elicitations.jsonl: line 2:" in err
    assert f"temperature must be in (0, 2], got {float(temperature)}" in err
    assert not (out_dir / "reports").exists()


# the rates the line's response gives, as (parameter, n, mean)
LINE_RATES = [("alpha_rate", "1", 0.5), ("beta_rate", "1", 0.1)]


@pytest.mark.parametrize("line, outcome", [
    (_audit_line(parsed=[0.5, 0.1]), "no rates"),
    (_audit_line(response=PARSED_RECORD["response"], parsed=[-3, 0]), LINE_RATES),
    (_audit_line(response=5, error="ResponseFormatError: not text"), "rejected"),
    (_audit_line(response=PARSED_RECORD["response"], request_hash=5), LINE_RATES),
    (_audit_line(response=PARSED_RECORD["response"], request_hash=_request_hash(1.0)),
     LINE_RATES),
    ({"request_hash": _request_hash(0.5), "response": PARSED_RECORD["response"]},
     "rejected"),
    ({"model": "m1", "strategy": "blind", "temperature": 1.0,  # the README's fixture line
      "response": '{"alpha_rate": 0.5, "beta_rate": 0.1}'}, LINE_RATES),
], ids=["parsed-without-response", "parsed-beside-response", "non-text-response",
        "numeric-hash", "hash-of-other-fields", "hash-only", "no-timestamp"])
def test_report_reads_a_line_as_its_replay_does(tmp_path, capsys, line, outcome):
    """``report`` and a ``--fixtures`` replay of the same audit line either
    both count the same rates or both reject the line: each files it under
    its model, strategy and temperature, and neither reads a stored hash,
    so a line that gives only a hash is malformed."""
    out_dir = tmp_path / "out"
    (out_dir / "audit").mkdir(parents=True)
    log = out_dir / "audit" / "elicitations.jsonl"
    log.write_text(json.dumps(line) + "\n", encoding="utf-8")

    def seen(rc, rates):
        out, err = capsys.readouterr()
        if rc == 0:
            return rates(out)
        assert rc == 4, err
        return "rejected" if "elicitations.jsonl: line 1:" in err else "no rates"

    rc = main(["report", "--out", str(out_dir)])
    reported = seen(rc, lambda out: [
        (row["parameter"], row["n"], float(row["mean"])) for row in csv.DictReader(
            (out_dir / "results" / "prior_param_stats.csv").read_text().splitlines())])
    rc = main(["elicit", "--fixtures", str(log), "--model", "m1", "--strategy", "blind",
               "--temperature", str(line.get("temperature", 0.5)), "--n-queries", "1",
               "--out", str(tmp_path / "replay")])
    replayed = seen(rc, lambda out: [  # the alpha_rate and beta_rate lines
        (name, "1", float(value))
        for name, _, value in (text.partition(" = ") for text in out.splitlines()[2:])])
    assert replayed == reported == outcome


@pytest.mark.parametrize("model", [5, None], ids=["int", "null"])
@pytest.mark.parametrize("command", ["report", "elicit"])
def test_non_string_model_exit_code(tmp_path, capsys, command, model):
    """A logged or recorded line must name its model by a non-empty string;
    one that does not ends in exit 4 naming the line, not a traceback from
    sorting a number among model names."""
    out_dir = tmp_path / "out"
    (out_dir / "audit").mkdir(parents=True)
    log = out_dir / "audit" / "elicitations.jsonl"
    log.write_text(f"{json.dumps(PARSED_RECORD)}\n"
                   f"{json.dumps({**PARSED_RECORD, 'model': model})}\n", encoding="utf-8")
    argv = {"report": ["report"],
            "elicit": ["elicit", "--fixtures", str(log), "--model", "m1",
                       "--strategy", "blind", "--temperature", "0.5"]}[command]
    assert main([*argv, "--out", str(out_dir)]) == 4
    err = capsys.readouterr().err
    assert "elicitations.jsonl: line 2" in err
    assert "'model' must be a non-empty string" in err


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


EXPERIMENTS = {
    "cv": ["cv", "--k", "3", "--models", "m1", "--strategies", "blind",
           "--temperatures", "0.5"],
    "efficiency": ["efficiency", "--model", "m1", "--strategy", "blind", "--temperature",
                   "0.5", "--rho-grid", "0.5,1.0", "--n-replications", "2"],
}


@pytest.mark.parametrize("failure", ["unparseable", "interrupted"])
@pytest.mark.parametrize("command", ["cv", "efficiency"])
def test_failed_run_removes_its_earlier_tables(dataset_file, config_file, tmp_path,
                                               monkeypatch, command, failure):
    """Both experiments succeed into one --out, then one of them fails or is
    interrupted there once it has queried: none of its tables or report
    is left beside its audit log, which holds the failed run's records, and
    the other experiment's files stay."""
    out_dir = tmp_path / "out"
    common = ["--dataset", dataset_file, "--config", config_file, "--out", str(out_dir)]
    ok = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])
    for argv in EXPERIMENTS.values():
        assert main([*argv, *common, "--fixtures", ok]) == 0
    other = "efficiency" if command == "cv" else "cv"
    kept = sorted(out_dir.glob(f"re*/{other}_*"))
    assert len(kept) == 3 and len(list(out_dir.glob(f"re*/{command}_*"))) == 3

    if failure == "unparseable":  # every query of the first LLM cell
        steps = ["not json"] * (5 if command == "cv" else 1)
    else:
        steps = [DISTINCT_RESPONSES[0], KeyboardInterrupt()]
    monkeypatch.setattr(cli, "_make_transport", lambda cfg: ScriptedTransport(steps))
    argv = [*EXPERIMENTS[command], *common]
    if failure == "unparseable":
        assert main(argv) == 4
    else:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    assert list(out_dir.glob(f"re*/{command}_*")) == []
    assert sorted(out_dir.glob(f"re*/{other}_*")) == kept
    audit = audit_records(out_dir / "audit" / f"{command}_elicitations.jsonl")
    # an interrupted query leaves no record
    answered = steps if failure == "unparseable" else steps[:1]
    assert [r["response"] for r in audit] == answered


@pytest.mark.parametrize("command", ["ingest", "elicit", "fit", "cv", "efficiency",
                                     "report"])
@pytest.mark.parametrize("blocked", ["root", "subdir", "read_only"])
def test_unwritable_out_exit_code(dataset_file, config_file, tmp_path, monkeypatch,
                                  capsys, command, blocked):
    """An output directory that cannot be made, because a regular file holds
    its name (the --out root, or a directory the command writes) or the
    --out root is read-only, exits 2 before any data is loaded, query
    sent or file written, ``report`` even when it has an audit log to read."""
    sent = []
    monkeypatch.setattr(FixtureTransport, "send",
                        lambda self, request: sent.append(request))
    monkeypatch.setattr(cli, "load_dataset",
                        lambda path: pytest.fail("the dataset was loaded"))
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])
    replay = ["--fixtures", fx, "--config", config_file]
    one = ["--model", "m1", "--strategy", "blind", "--temperature", "0.5"]
    argv, kind = {
        "ingest": (["ingest", dataset_file], "reports"),
        "elicit": (["elicit", *replay, *one], "audit"),
        "fit": (["fit", "--dataset", dataset_file, "--config", config_file], "draws"),
        "cv": (["cv", "--dataset", dataset_file, *replay, "--models", "m1",
                "--strategies", "blind", "--temperatures", "0.5"], "results"),
        "efficiency": (["efficiency", "--dataset", dataset_file, *replay, *one], "audit"),
        "report": (["report"], "results"),
    }[command]
    out_dir = tmp_path / "out"
    blocked_path, reason = {"root": (out_dir, "is not a directory"),
                            "subdir": (out_dir / kind, "is not a directory"),
                            "read_only": (out_dir, "is not writable")}[blocked]
    if blocked != "root":
        out_dir.mkdir()
    if command == "report" and blocked != "root":
        (out_dir / "audit").mkdir()
        write_fixtures(out_dir / "audit", [PARSED_RECORD], "elicitations.jsonl")
    if blocked == "read_only":
        # a superuser ignores permission bits, so a read-only mode is faked
        monkeypatch.setattr(os, "access", lambda path, mode: Path(path) != out_dir)
    else:
        blocked_path.write_text("a regular file\n", encoding="utf-8")
    assert main([*argv, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: cannot create output directory {blocked_path}: "
        f"{blocked_path} {reason}\n")
    assert sent == []
    assert not (out_dir / "reports").is_dir()


@pytest.mark.parametrize("command, taken", [
    ("ingest", "reports/ingest.txt"),
    ("ingest", "reports/ingest.txt.tmp"),
    ("elicit", "audit/elicitations.jsonl"),
    ("fit", "draws/draws.csv"),
    ("cv", "results/cv_folds.csv"),
    ("efficiency", "reports/efficiency_report.txt"),
    ("report", "results/prior_param_stats.csv"),
])
def test_output_file_taken_by_a_directory_exit_code(dataset_file, config_file, tmp_path,
                                                    capsys, command, taken):
    """An output file that cannot be written, here because a directory holds
    its path or its temporary file's (a superuser may write any file, but
    no one may write a directory), exits 2 naming the file, and leaves no
    temporary file."""
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])
    replay = ["--fixtures", fx, "--config", config_file]
    one = ["--model", "m1", "--strategy", "blind", "--temperature", "0.5"]
    argv = {
        "ingest": ["ingest", dataset_file],
        "elicit": ["elicit", *replay, *one],
        "fit": ["fit", "--dataset", dataset_file, "--config", config_file],
        "cv": ["cv", "--dataset", dataset_file, *replay, "--k", "3", "--models", "m1",
               "--strategies", "blind", "--temperatures", "0.5"],
        "efficiency": ["efficiency", "--dataset", dataset_file, *replay, *one,
                       "--n-replications", "1"],
        "report": ["report"],
    }[command]
    out_dir = tmp_path / "out"
    if command == "report":
        (out_dir / "audit").mkdir(parents=True)
        write_fixtures(out_dir / "audit", [PARSED_RECORD], "elicitations.jsonl")
    (out_dir / taken).mkdir(parents=True)
    assert main([*argv, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == ("configuration error: cannot write "
                                       f"{out_dir / taken.removesuffix('.tmp')}: "
                                       "Is a directory\n")
    assert list(out_dir.rglob("*.tmp")) == [out_dir / taken] * taken.endswith(".tmp")


def test_report_audit_log_taken_by_a_directory_exit_code(tmp_path, capsys):
    """An audit log that ``report`` cannot read, here a directory by its
    name, exits 3 naming it, as a missing audit directory does."""
    out_dir = tmp_path / "out"
    (out_dir / "audit").mkdir(parents=True)
    write_fixtures(out_dir / "audit", [PARSED_RECORD], "elicitations.jsonl")
    (out_dir / "audit" / "x.jsonl").mkdir()
    assert main(["report", "--out", str(out_dir)]) == 3
    assert capsys.readouterr().err == (
        f"data error: cannot read {out_dir / 'audit' / 'x.jsonl'}: Is a directory\n")
    assert not (out_dir / "reports").exists()


def test_config_unknown_key_exit_code(dataset_file, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # rhat_threshold, strict and train_fraction were settings once
    for key, value in (("chains", "4"), ("rhat_threshold", "1.1"), ("strict", "true"),
                       ("train_fraction", "0.7")):
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        rc = main(["ingest", dataset_file, "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown config key" in err
        assert repr(key) in err


def test_config_repeated_key_exit_code(tmp_path, monkeypatch, capsys):
    """A file that sets a key twice names the key and both lines, before
    any dataset is read; a flag over a file line is an override."""
    read = []
    monkeypatch.setattr(cli, "load_dataset", lambda path: read.append(path))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\nk = 3\n  # note\nseed = 2\n", encoding="utf-8")
    rc = main(["cv", "--dataset", "counts.csv", "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"configuration error: {cfg}: line 4: config key 'seed' already set on line 1\n")
    assert read == []
    cfg.write_text("seed = 1\n", encoding="utf-8")
    args = build_parser().parse_args(["cv", "--config", str(cfg), "--seed", "2"])
    assert _resolve_config(args)[0].seed == 2


def test_config_bad_boolean_exit_code(dataset_file, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("live = maybe\n", encoding="utf-8")
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


@pytest.mark.parametrize("timeout", ["0", "inf", "nan", "1e300", "86401"])
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
    # no longer a setting: the line is rejected as an unknown key
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
    # distinct values that the outputs would report under one name
    (["cv", "--temperatures", "0.1,0.1000001"], "",
     "temperatures must not repeat a value, got 0.1 and 0.1000001,"),
    (["efficiency", "--rho-grid", "0.5,0.5000001"], "",
     "rho_grid must not repeat a value, got 0.5 and 0.5000001,"),
    (["efficiency"], "backoff_base = nan\n", "backoff_base"),
    (["efficiency"], "backoff_base = inf\n", "backoff_base"),
    (["efficiency"], "backoff_base = 1e300\n", "backoff_base"),
    (["efficiency"], "backoff_base = 86401\n", "backoff_base"),
    (["cv", "--seed", "-1"], "", "seed"),
    (["efficiency", "--seed", "-1"], "", "seed"),
    # only fit reads the chain settings, but every command checks them
    (["cv"], "n_draws = 0\n", "n_chains, n_warmup and n_draws"),
], ids=["train_fraction", "n_replications", "rho_grid", "k_below_2", "k_above_sites",
        "rho_grid_not_a_number", "temperatures_not_a_number", "rho_grid_empty",
        "rho_grid_repeated", "temperatures_repeated", "models_repeated",
        "strategies_repeated", "temperatures_same_name", "rho_grid_same_name",
        "backoff_base_nan", "backoff_base_inf",
        "backoff_base_huge", "backoff_base_above_one_day", "cv_seed_negative",
        "efficiency_seed_negative", "cv_n_draws_zero"])
def test_out_of_range_experiment_setting_exit_code(
        dataset_file, tmp_path, monkeypatch, capsys, command, config_line, key):
    sent = []
    monkeypatch.setattr(FixtureTransport, "send",
                        lambda self, request: sent.append(request))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(small_config(config_line), encoding="utf-8")
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])
    out_dir = tmp_path / "out"
    llm = (["--models", "m1", "--strategies", "blind", "--temperatures", "0.5"]
           if command[0] == "cv" else ["--model", "m1", "--temperature", "0.5"])
    # the case's own flags come last, so they override the defaults in llm
    rc = main([command[0], *llm, *command[1:], "--dataset", dataset_file,
               "--config", str(cfg), "--out", str(out_dir), "--fixtures", fx])
    assert rc == 2
    expected = f"{key} "
    if key == "train_fraction":
        lineno = SMALL_MCMC_CONFIG.count("\n") + 1
        expected = f"{cfg}: line {lineno}: unknown config key 'train_fraction'\n"
    assert f"configuration error: {expected}" in capsys.readouterr().err
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
    # recorded answers and a live endpoint exclude each other
    ("elicit", ["--live"], "live = true"),
    ("cv", ["--live", "--k", "3"], "live = true\nk = 3"),  # 3 folds fill the 9 sites
], ids=["n_queries", "temperature", "second_temperature", "k_not_an_integer",
        "elicit_fixtures_and_live", "cv_fixtures_and_live"])
def test_flag_and_file_reject_alike(dataset_file, tmp_path, monkeypatch, capsys,
                                    command, flag, config_line, source):
    sent = []
    monkeypatch.setattr(FixtureTransport, "send",
                        lambda self, request: sent.append(request))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(small_config(config_line if source == "file" else ""), encoding="utf-8")
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
        cfg.write_text(small_config("models = m1\nstrategies = blind\n"
                                    + (config_line if source == "file" else "")),
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


def test_config_reads_a_leading_byte_order_mark_as_nothing(tmp_path):
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text("seed = 7\nn_chains = 2\n", encoding="utf-8")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_config(bom) == load_config(plain)
    assert load_config(bom).seed == 7


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


def _exit_and_loaded(argv: list[str], watched) -> tuple[str, set[str]]:
    """Run ``main(argv)`` in a fresh interpreter, or only ``import
    aebayes.cli`` when ``argv`` is empty: its exit code as text, and the
    ``watched`` modules it loaded."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import sys\n"
              "from aebayes.cli import main\n"
              "code = None\n"
              "try:\n"
              "    if sys.argv[1:]:\n"
              "        code = main(sys.argv[1:])\n"
              "except SystemExit as exc:\n"
              "    code = exc.code\n"
              f"print(code, *(m for m in {sorted(watched)!r} if m in sys.modules))\n")
    run = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    code, *loaded = run.stdout.splitlines()[-1].split()
    return code, set(loaded)


@pytest.mark.parametrize("argv, code", [
    (["ingest", "{dataset}"], 0),
    (["--help"], 0),
    (["fit", "--seed", "-1"], 2),
    (["report", "--out", "{missing}"], 3),
], ids=["ingest", "help", "setting_error", "report_missing"])
def test_cli_imports_neither_scipy_nor_requests(dataset_file, tmp_path, argv, code):
    """These commands run to their exit without loading numpy, scipy or the
    live transport's requests: only commands that compute import numpy."""
    argv = [arg.format(dataset=dataset_file, missing=tmp_path / "missing") for arg in argv]
    assert _exit_and_loaded(argv, ("numpy", "scipy", "requests")) == (str(code), set())


@pytest.mark.parametrize("argv", [
    ["fit", "--dataset", "{dataset}", "--config", "{config}", "--out", "{out}"],
    ["cv", "--k", "3", "--models", "m1", "--strategies", "blind", "--temperatures", "0.5",
     "--dataset", "{dataset}", "--fixtures", "{fixtures}", "--out", "{out}"],
    ["efficiency", "--model", "m1", "--strategy", "blind", "--temperature", "0.5",
     "--rho-grid", "0.5,1.0", "--n-replications", "2", "--dataset", "{dataset}",
     "--fixtures", "{fixtures}", "--out", "{out}"],
], ids=["fit", "cv", "efficiency"])
def test_computing_commands_import_neither_scipy_nor_requests(dataset_file, config_file,
                                                               tmp_path, argv):
    """Full ``fit``, ``cv`` and ``efficiency`` runs, which load numpy by
    design, exit 0 without loading scipy or the live transport's requests."""
    fixtures = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])
    argv = [arg.format(dataset=dataset_file, config=config_file, out=tmp_path / "out",
                       fixtures=fixtures) for arg in argv]
    assert _exit_and_loaded(argv, ("scipy", "requests")) == ("0", set())


_ELICITATION = "aebayes.elicitation"
_NO_ELICITATION_STACK = {_ELICITATION, "hashlib", "json"}


@pytest.mark.parametrize("argv, code, absent, present", [
    ([], None, _NO_ELICITATION_STACK, set()),
    (["ingest", "{dataset}"], 0, _NO_ELICITATION_STACK, set()),
    (["--help"], 0, {_ELICITATION}, set()),
    (["--version"], 0, {_ELICITATION}, set()),
    (["fit", "--seed", "-1"], 2, {_ELICITATION}, set()),
    (["fit", "--dataset", "{dataset}", "--config", "{config}", "--out", "{out}"], 0,
     {_ELICITATION}, set()),
    (["elicit", "--model", "m1", "--fixtures", "{fixtures}", "--out", "{out}"], 0,
     set(), {_ELICITATION}),
    (["report", "--out", "{out}"], 0, set(), {_ELICITATION}),
], ids=["import", "ingest", "help", "version", "setting_error", "fit", "elicit", "report"])
def test_cli_loads_elicitation_only_in_commands_that_elicit(dataset_file, config_file,
                                                            tmp_path, argv, code, absent,
                                                            present):
    """``import aebayes.cli``, and every command that neither queries a model
    nor reads its records, runs to its exit without loading
    ``aebayes.elicitation``; ``ingest`` loads neither hashlib nor json.  The
    commands that do elicit import it when they run."""
    out = tmp_path / "out"
    fixtures = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.1)])
    if argv[:1] == ["report"]:  # an audit log for report to read
        assert main(["elicit", "--model", "m1", "--fixtures", fixtures, "--out", str(out)]) == 0
    argv = [arg.format(dataset=dataset_file, config=config_file, out=out, fixtures=fixtures)
            for arg in argv]
    exit_code, loaded = _exit_and_loaded(argv, _NO_ELICITATION_STACK)
    assert exit_code == str(code)
    assert not absent & loaded and present <= loaded


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "user_value"])
def test_cli_runs_blas_on_one_thread(dataset_file, tmp_path, preset):
    """``main`` sets OPENBLAS_NUM_THREADS to 1 before numpy loads, so on
    Linux a cv run's process holds one thread; a value the user set stays.
    Only ``fit``'s export loads the draw formatter, so cv never builds its
    tables."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import os, sys\n"
              "from aebayes.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "threads = ([line.split()[1] for line in open('/proc/self/status')\n"
              "            if line.startswith('Threads:')] if sys.platform == 'linux' else [])\n"
              "print(code, 'numpy' in sys.modules, 'aebayes._floatrepr' in sys.modules,\n"
              "      os.environ['OPENBLAS_NUM_THREADS'], *threads)\n")
    fx = write_fixtures(tmp_path, [fixture_entry("m1", "blind", 0.5)])
    argv = ["cv", "--k", "3", "--models", "m1", "--strategies", "blind",
            "--temperatures", "0.5", "--dataset", dataset_file, "--fixtures", fx,
            "--out", str(tmp_path / "out")]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(src)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    run = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                         text=True, env=env, check=True)
    code, numpy_loaded, formatter_loaded, value, *threads = run.stdout.splitlines()[-1].split()
    assert (code, numpy_loaded, value) == ("0", "True", preset or "1")
    assert formatter_loaded == "False"
    if preset is None and sys.platform == "linux":
        assert threads == ["1"]


# sha256 over the names and bytes of results/, reports/ and draws/ after one
# command on PINNED_DATASET; recorded with numpy 2.4.6, whose OpenBLAS
# matrix product the cv and efficiency cells' quadrature also goes through
PINNED_OUTPUT_DIGESTS = {
    "fit": (["fit"], "0b53fa1acf95305bf73ee4ed293ae43153c846be7f31da39fbb21f3bc4e5f27c"),
    "cv": (["cv", "--k", "3", "--models", "m1", "--strategies", "blind",
            "--temperatures", "0.5"],
           "bd97737fe84fd0e6e196ac49097ae7dbbf7affb80500c50dbf539c6916b44312"),
    "efficiency": (["efficiency", "--model", "m1", "--strategy", "blind",
                    "--temperature", "0.5", "--rho-grid", "0.5,1.0",
                    "--n-replications", "2"],
                   "1cd9d1ccfd2fa776033a9d0a33a1eea5ffd280887a3f6d56eb2cae80b0862379"),
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


# sha256 over the names and bytes of results/ and reports/ after three
# elicit runs and report; the (m1, blind, 0.5) group holds 11 parsed
# answers, enough for numpy's pairwise sum
PINNED_REPORT_DIGEST = "f394c6577b3a3bfce8abf34a8502875ca33f57a0b16d9e3084dd6fbc860ba7da"
REPORT_RESPONSES = ['{"alpha_rate": 0.37, "beta_rate": 0.113}',
                    '{"alpha_rate": 1.9, "beta_rate": 0.07}',
                    '{"alpha_rate": 0.2, "beta_rate": 2.0}',
                    "not json",
                    '{"alpha_rate": 0.61, "beta_rate": 0.3}',
                    '{"alpha_rate": 3.3, "beta_rate": 0.45}',
                    '{"alpha_rate": 0.05, "beta_rate": 1.25}']


def test_report_bytes_pinned(tmp_path, capsys):
    """``report`` must reproduce every byte it writes to results/ and
    reports/, and echo its report to stdout."""
    fx = write_fixtures(tmp_path, [
        *(fixture_entry("m1", "blind", 0.5, response=r) for r in REPORT_RESPONSES),
        *(fixture_entry("m2", "disease_informed", 1.0, response=r)
          for r in REPORT_RESPONSES[:3])])
    out_dir = tmp_path / "out"
    for model, strategy, temperature, n_queries in [("m1", "blind", "0.5", "7"),
                                                    ("m1", "blind", "0.5", "5"),
                                                    ("m2", "disease_informed", "1.0", "3")]:
        assert main(["elicit", "--fixtures", fx, "--model", model, "--strategy", strategy,
                     "--temperature", temperature, "--n-queries", n_queries,
                     "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out_dir)]) == 0
    report = (out_dir / "reports" / "prior_param_stats.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == report
    digest = hashlib.sha256()
    for kind in ("results", "reports"):
        for path in sorted((out_dir / kind).iterdir()):
            digest.update(f"{kind}/{path.name}\n".encode())
            digest.update(path.read_bytes())
    assert digest.hexdigest() == PINNED_REPORT_DIGEST, (
        f"report outputs changed: sha256 {digest.hexdigest()} (numpy {np.__version__})")

"""The CLI's live path (``--live``, ``LLM_ENDPOINT``, ``LLM_API_KEY``,
``timeout`` and the retries) end to end, against ``llm_stub.StubEndpoint``
on 127.0.0.1."""

from __future__ import annotations

import json

import pytest

from aebayes.cli import EXIT_NETWORK, main
from aebayes.elicitation import PromptStrategy, build_prompt
from llm_stub import StubEndpoint
from test_cli import DATASET, output_bytes, small_config

API_KEY = "sk-stub-key"
ONE_CONDITION = ("--k", "3", "--models", "m1", "--strategies", "blind", "--temperatures", "0.5")


@pytest.fixture
def cv(tmp_path, monkeypatch):
    """``cv(stub, *args, config="")`` runs ``aebayes cv`` with the key set,
    ``LLM_ENDPOINT`` at the stub (if one is given), the small chains, a
    backoff base of 1 ms and the lines of ``config``."""
    dataset = tmp_path / "counts.csv"
    dataset.write_text(DATASET, encoding="utf-8")
    monkeypatch.setenv("LLM_API_KEY", API_KEY)

    def cv(stub: StubEndpoint | None, *args: str, config: str = "") -> int:
        if stub is not None:
            monkeypatch.setenv("LLM_ENDPOINT", stub.url)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(small_config(config), encoding="utf-8")
        return main(["cv", "--dataset", str(dataset), "--config", str(cfg), *args])

    return cv


def audit_lines(out) -> list[dict]:
    path = out / "audit" / "cv_elicitations.jsonl"
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_cv_live_records_and_its_audit_log_replays(cv, tmp_path):
    """``cv --live`` queries the stub, retrying the 503 it gives every 7th
    request, and records every answer; ``cv --fixtures`` on that audit log
    writes the same results and reports, byte for byte.  Every request
    carries the key as a bearer token and its condition's model,
    temperature and prompt."""
    live, replay = tmp_path / "live", tmp_path / "replay"
    conditions = ("--k", "3", "--models", "m1,m2", "--strategies", "blind,disease_informed",
                  "--temperatures", "0.5,1.0")
    with StubEndpoint(fail_every=7) as stub:
        assert cv(stub, "--live", *conditions, "--out", str(live)) == 0
    records = audit_lines(live)
    assert len(records) == 8 * 3 * 5  # conditions x folds x queries
    assert all(r["error"] is None for r in records)
    failed = len(stub.requests) // 7
    assert failed > 0 and len(stub.requests) - failed == len(records)
    audit = live / "audit" / "cv_elicitations.jsonl"
    assert cv(None, "--fixtures", str(audit), *conditions, "--out", str(replay)) == 0
    assert output_bytes(live) == output_bytes(replay)
    assert len(output_bytes(live)) >= 3

    sent = set()
    for headers, payload in stub.requests:
        assert headers["Authorization"] == f"Bearer {API_KEY}"
        [message] = payload["messages"]
        sent.add((payload["model"], payload["temperature"], message["content"]))
    assert sent == {(model, temperature, build_prompt(strategy))
                    for model in ("m1", "m2") for temperature in (0.5, 1.0)
                    for strategy in PromptStrategy}


@pytest.mark.parametrize("status", [401, 403])
def test_live_rejected_credentials_exit_code(cv, tmp_path, capsys, status):
    """An endpoint that rejects the key fails each query at once, with no
    retry, and the run exits 4."""
    with StubEndpoint(status=status) as stub:
        rc = cv(stub, "--live", *ONE_CONDITION, "--out", str(tmp_path / "out"))
    assert rc == EXIT_NETWORK == 4
    assert f"rejected credentials (HTTP {status})" in capsys.readouterr().err
    assert len(stub.requests) == 5  # one per query of the first batch


def test_live_persistent_503_exhausts_the_retries(cv, tmp_path, capsys):
    """A 503 on every request is retried max_retries times per query; each
    query then fails, with one audit line each, and the run exits 4."""
    out = tmp_path / "out"
    with StubEndpoint(status=503) as stub:
        rc = cv(stub, "--live", *ONE_CONDITION, "--out", str(out), config="max_retries = 2")
    assert rc == EXIT_NETWORK
    assert "giving up after 3 attempts: HTTP 503" in capsys.readouterr().err
    records = audit_lines(out)
    assert len(records) == 5 and len(stub.requests) == 5 * 3
    for record in records:
        assert record["response"] is None
        assert record["error"].startswith(
            "RetriesExhaustedError: giving up after 3 attempts: HTTP 503")


def test_live_body_without_choices_is_a_response_format_error(cv, tmp_path):
    """A 200 whose body holds no ``choices`` is recorded as a
    ``ResponseFormatError`` for each query, and not retried."""
    out = tmp_path / "out"
    with StubEndpoint(body={"object": "chat.completion"}) as stub:
        rc = cv(stub, "--live", *ONE_CONDITION, "--out", str(out))
    assert rc == EXIT_NETWORK
    records = audit_lines(out)
    assert len(records) == len(stub.requests) == 5
    for record in records:
        assert record["response"] is None
        assert record["error"].startswith("ResponseFormatError: malformed completion body")


def test_live_request_past_the_timeout_is_retried(cv, tmp_path):
    """A stub slower than ``timeout`` times each attempt out, which is
    retried as a transient failure."""
    out = tmp_path / "out"
    with StubEndpoint(delay=0.3) as stub:
        rc = cv(stub, "--live", *ONE_CONDITION, "--out", str(out),
                config="timeout = 0.05\nmax_retries = 1")
    assert rc == EXIT_NETWORK
    records = audit_lines(out)
    assert len(records) == 5
    for record in records:
        assert record["error"] == ("RetriesExhaustedError: giving up after 2 attempts: "
                                   "request timed out after 0.05s")

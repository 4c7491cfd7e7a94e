from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aebayes.elicitation import (
    AllQueriesFailedError,
    AuthenticationError,
    ChatRequest,
    ElicitationConfig,
    ElicitationError,
    ElicitationRecord,
    FixtureMissError,
    FixtureTransport,
    HttpTransport,
    PromptStrategy,
    RecordedFailureError,
    ResponseFormatError,
    RetriesExhaustedError,
    TransientTransportError,
    build_prompt,
    elicit_prior,
    parse_response,
    prior_param_rows,
    query_llm,
    read_audit_log,
    write_audit_log,
)
from aebayes.model import HyperPriorSpec
from aebayes_testkit import transport_from

DATA = Path(__file__).parent / "data"


def make_config(**kw) -> ElicitationConfig:
    kw.setdefault("model_id", "test-model")
    kw.setdefault("backoff_base", 0.001)
    return ElicitationConfig(**kw)


# ---------------------------------------------------------------- prompts

def test_blind_prompt_matches_golden_file():
    assert build_prompt(PromptStrategy.BLIND).encode() == \
        (DATA / "prompt_blind.txt").read_bytes()


def test_disease_informed_prompt_matches_golden_file():
    assert build_prompt(PromptStrategy.DISEASE_INFORMED).encode() == \
        (DATA / "prompt_disease_informed.txt").read_bytes()


def test_prompt_invariants():
    blind = build_prompt(PromptStrategy.BLIND)
    disease = build_prompt(PromptStrategy.DISEASE_INFORMED)
    assert blind.startswith("You are a biostatistics expert specializing "
                            "in clinical trials and Bayesian analysis.")
    assert "Disease: Non-small cell lung cancer (NSCLC)" in disease
    closing = "Exponential(rate) has mean = 1/rate. Rate must be > 0."
    assert blind.endswith(closing) and disease.endswith(closing)
    assert "NSCLC" not in blind


def test_prompt_is_deterministic():
    assert build_prompt(PromptStrategy.BLIND) == build_prompt(PromptStrategy.BLIND)


# ----------------------------------------------------------------- parsing

@pytest.mark.parametrize("raw, expected", [
    ('{"alpha_rate": 0.5, "beta_rate": 0.1}', (0.5, 0.1)),
    ('```json\n{"alpha_rate": 0.1, "beta_rate": 1.0}\n```', (0.1, 1.0)),
    ('```\n{"alpha_rate": 0.1, "beta_rate": 2.0}\n```', (0.1, 2.0)),
    ('  {"alpha_rate": 2, "beta_rate": 3}  ', (2.0, 3.0)),
    ('{"alpha_rate": 0.5, "beta_rate": 0.1, "note": "extra ok"}', (0.5, 0.1)),
    ('```JSON\n{"beta_rate": 4e-2, "alpha_rate": 1e1}\n```', (10.0, 0.04)),
])
def test_parse_valid_responses(raw, expected):
    assert parse_response(raw) == expected


@pytest.mark.parametrize("raw, fragment", [
    ("", "unparseable"),
    ("not json at all", "unparseable"),
    ('{"alpha_rate": 0.5', "unparseable"),
    ("[0.5, 0.1]", "expected JSON object"),
    ('"just a string"', "expected JSON object"),
    ('{"beta_rate": 0.1}', "missing field: alpha_rate"),
    ('{"alpha_rate": 0.5}', "missing field: beta_rate"),
    ('{"alpha_rate": -1, "beta_rate": 0.5}', "non-positive value for alpha_rate"),
    ('{"alpha_rate": 0.5, "beta_rate": 0}', "non-positive value for beta_rate"),
    ('{"alpha_rate": "0.5", "beta_rate": 0.1}', "non-numeric value for alpha_rate"),
    ('{"alpha_rate": true, "beta_rate": 0.1}', "non-numeric value for alpha_rate"),
    ('{"alpha_rate": null, "beta_rate": 0.1}', "non-numeric value for alpha_rate"),
    ('{"alpha_rate": 0.5, "beta_rate": Infinity}', "non-finite value for beta_rate"),
    ('{"alpha_rate": NaN, "beta_rate": 0.1}', "non-finite value for alpha_rate"),
    pytest.param('{"alpha_rate": 1%s, "beta_rate": 0.1}' % ("0" * 400),
                 "non-finite value for alpha_rate", id="integer_beyond_float"),
    pytest.param('{"alpha_rate": 1%s, "beta_rate": 0.1}' % ("0" * 5000),
                 "unparseable", id="integer_of_5001_digits"),
    pytest.param("[" * 100_000, "unparseable", id="nested_100000_deep"),
    ('```\nnot json\n```', "unparseable"),
])
def test_parse_malformed_responses_name_the_problem(raw, fragment):
    with pytest.raises(ResponseFormatError) as exc_info:
        parse_response(raw)
    assert fragment in str(exc_info.value)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    b=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    fence=st.booleans(),
)
def test_parse_serialize_round_trip(a, b, fence):
    body = json.dumps({"alpha_rate": a, "beta_rate": b})
    if fence:
        body = f"```json\n{body}\n```"
    assert parse_response(body) == (a, b)


# ----------------------------------------------------------------- transports

class FlakyTransport:
    """Fails with the queued exceptions, then returns the body."""

    def __init__(self, failures: list[Exception], body: str):
        self.failures = list(failures)
        self.body = body
        self.calls = 0

    def send(self, request: ChatRequest) -> str:
        self.calls += 1
        if self.failures:
            raise self.failures.pop(0)
        return self.body


def test_query_llm_passes_through_fixture_body():
    transport = transport_from([{
        "model": "test-model", "strategy": "blind", "temperature": 1.0,
        "response": "VERBATIM BODY"}])
    request = ChatRequest("test-model", build_prompt(PromptStrategy.BLIND), 1.0)
    assert query_llm(request, make_config(), transport) == "VERBATIM BODY"


def test_query_llm_retries_then_succeeds(monkeypatch):
    sleeps: list[float] = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    transport = FlakyTransport(
        [TransientTransportError("429"), TransientTransportError("429")], "ok")
    got = query_llm(ChatRequest("m", "p", 1.0), make_config(backoff_base=1.0), transport)
    assert got == "ok"
    assert transport.calls == 3
    assert sleeps == [1.0, 2.0]  # doubling backoff


def test_query_llm_exhausts_retries(monkeypatch):
    sleeps: list[float] = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    transport = FlakyTransport([TransientTransportError("boom")] * 100, "never")
    cfg = make_config(max_retries=5, backoff_base=1.0)
    with pytest.raises(RetriesExhaustedError) as exc_info:
        query_llm(ChatRequest("m", "p", 1.0), cfg, transport)
    assert exc_info.value.attempts == 6  # initial try + 5 retries
    assert transport.calls == 6
    assert sleeps == [1.0, 2.0, 4.0, 8.0, 16.0]


def test_query_llm_auth_error_is_immediate(monkeypatch):
    sleeps: list[float] = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    transport = FlakyTransport([AuthenticationError("401")], "never")
    with pytest.raises(AuthenticationError):
        query_llm(ChatRequest("m", "p", 1.0), make_config(), transport)
    assert transport.calls == 1 and sleeps == []


class _StubResponse:
    def __init__(self, status_code: int, body):
        self.status_code = status_code
        self._body = body
        self.text = body if isinstance(body, str) else json.dumps(body)

    def json(self):
        if isinstance(self._body, str):
            raise ValueError("not json")
        return self._body


def _chat_body(content: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


def test_http_transport_wire_protocol(monkeypatch):
    import requests

    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured.update(url=url, payload=json, headers=headers, timeout=timeout)
        return _StubResponse(200, _chat_body('{"alpha_rate": 1, "beta_rate": 2}'))

    monkeypatch.setattr(requests, "post", fake_post)
    transport = HttpTransport("http://example.test/v1/chat", api_key="sk-x",
                              timeout=17.0)
    req = ChatRequest(model="m1", prompt="PROMPT", temperature=0.5)
    assert transport.send(req) == '{"alpha_rate": 1, "beta_rate": 2}'
    assert captured["url"] == "http://example.test/v1/chat"
    assert captured["payload"] == {
        "model": "m1",
        "messages": [{"role": "user", "content": "PROMPT"}],
        "temperature": 0.5,
    }
    assert captured["headers"]["Authorization"] == "Bearer sk-x"
    assert captured["timeout"] == 17.0


@pytest.mark.parametrize("status, exc", [
    (401, AuthenticationError),
    (403, AuthenticationError),
    (429, TransientTransportError),
    (500, TransientTransportError),
    (503, TransientTransportError),
])
def test_http_transport_status_mapping(monkeypatch, status, exc):
    import requests

    monkeypatch.setattr(requests, "post",
                        lambda *a, **k: _StubResponse(status, "err"))
    transport = HttpTransport("http://example.test")
    with pytest.raises(exc):
        transport.send(ChatRequest("m", "p", 1.0))


def test_http_transport_malformed_body(monkeypatch):
    import requests

    monkeypatch.setattr(requests, "post",
                        lambda *a, **k: _StubResponse(200, {"nope": 1}))
    transport = HttpTransport("http://example.test")
    with pytest.raises(ResponseFormatError):
        transport.send(ChatRequest("m", "p", 1.0))


@pytest.mark.parametrize("timeout", [0.0, -1.0, math.inf, math.nan, 1e300, 86_401.0])
def test_http_transport_rejects_non_positive_timeout(timeout):
    with pytest.raises(ValueError, match="timeout"):
        HttpTransport("http://example.test", timeout=timeout)


def test_fixture_transport_cycles_when_exhausted():
    bodies = ['{"alpha_rate": 0.4, "beta_rate": 0.1}',
              '{"alpha_rate": 0.6, "beta_rate": 0.1}']
    transport = transport_from(
        {"model": "m", "strategy": "blind", "temperature": 1.0, "response": b}
        for b in bodies)
    req = ChatRequest("m", build_prompt(PromptStrategy.BLIND), 1.0)
    seen = [transport.send(req) for _ in range(5)]
    assert seen == [bodies[0], bodies[1], bodies[0], bodies[1], bodies[0]]


def test_fixture_transport_miss():
    transport = transport_from([
        {"model": "m", "strategy": "blind", "temperature": 1.0, "response": "x"}])
    with pytest.raises(FixtureMissError, match="other-model"):
        transport.send(ChatRequest("other-model",
                                   build_prompt(PromptStrategy.BLIND), 1.0))


def test_jsonl_reads_a_leading_byte_order_mark_as_nothing(tmp_path):
    """A fixture file or audit log that starts with a UTF-8 byte-order mark
    reads as the same file without it."""
    rec = _ok_record("m", PromptStrategy.BLIND, 1.0, 0.5, 0.1)
    plain, bom = tmp_path / "plain.jsonl", tmp_path / "bom.jsonl"
    write_audit_log([rec], plain)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_audit_log(bom) == [rec]
    request = ChatRequest("m", build_prompt(PromptStrategy.BLIND), 1.0)
    assert FixtureTransport.from_path(bom).send(request) == rec.response


def test_jsonl_timestamp_is_optional_and_a_float(tmp_path):
    """A line without a timestamp reads with none; one past the float range
    is a malformed line, named by file and line."""
    line = {"model": "m", "strategy": "blind", "temperature": 1.0, "response": None}
    path = tmp_path / "audit.jsonl"
    path.write_text(json.dumps(line) + "\n")
    [rec] = read_audit_log(path)
    assert rec.timestamp is None
    path.write_text(json.dumps({**line, "timestamp": 10 ** 400}) + "\n")
    with pytest.raises(ElicitationError, match=r"audit\.jsonl: line 1: invalid record"):
        read_audit_log(path)


def test_fixture_transport_bad_records(tmp_path):
    with pytest.raises(ElicitationError, match="missing 'response'"):
        ElicitationRecord.from_json_dict({"model": "m"})
    with pytest.raises(ElicitationError, match="expected a JSON object"):
        ElicitationRecord.from_json_dict("response")
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(ElicitationError, match="line 1"):
        FixtureTransport.from_path(path)
    with pytest.raises(ElicitationError, match="'response' must be a string or null"):
        ElicitationRecord.from_json_dict({"model": "m", "strategy": "blind",
                                          "temperature": 1.0, "response": 5})
    with pytest.raises(ElicitationError, match="'error' must be a string or null"):
        ElicitationRecord.from_json_dict({"model": "m", "strategy": "blind",
                                          "temperature": 1.0, "response": None, "error": 5})


@pytest.mark.parametrize("temperature", [math.nan, -3, 2.5], ids=["nan", "negative", "above_2"])
def test_fixture_line_temperature_outside_the_batch_range(tmp_path, temperature):
    """A fixture line takes ``ElicitationConfig``'s temperature range, so a
    line no batch could request makes the file malformed at that line."""
    base = {"model": "m", "strategy": "blind", "response": "x"}
    path = tmp_path / "fixtures.jsonl"
    path.write_text(json.dumps({**base, "temperature": 1.0}) + "\n"
                    + json.dumps({**base, "temperature": temperature}) + "\n")
    with pytest.raises(ElicitationError, match=r"fixtures\.jsonl: line 2: .*temperature "
                                               r"must be in \(0, 2\]"):
        FixtureTransport.from_path(path)


def test_replay_hashes_nothing_and_the_audit_log_each_identity_once(monkeypatch, tmp_path):
    """Loading a fixture file and replaying a batch hash nothing: a line is
    filed under its request, and a request looks itself up.  Writing the
    batch's audit log hashes each (model, strategy, temperature) once,
    however many records share it."""
    from aebayes import elicitation
    calls, real_sha256 = [], hashlib.sha256

    def sha256(data):
        calls.append(data)
        return real_sha256(data)

    monkeypatch.setattr(hashlib, "sha256", sha256)
    elicitation._request_hash.cache_clear()
    fixtures = tmp_path / "fixtures.jsonl"
    fixtures.write_text("".join(
        json.dumps({"model": "hash-once", "strategy": "blind", "temperature": temperature,
                    "response": '{"alpha_rate": 0.5, "beta_rate": 0.1}'}) + "\n"
        for temperature in (0.5, 1.0) for _ in range(5)))
    transport = FixtureTransport.from_path(fixtures)
    audit = []
    for temperature in (0.5, 1.0, 0.5):
        elicit_prior(PromptStrategy.BLIND, make_config(model_id="hash-once",
                                                       temperature=temperature, n_queries=7),
                     transport, audit)
    assert len(audit) == 21 and all(r.ok for r in audit) and calls == []
    write_audit_log(audit, tmp_path / "audit.jsonl")
    assert [audit[0].request_hash, audit[7].request_hash] == [
        real_sha256(data).hexdigest() for data in calls]


def test_fixture_transport_replays_null_responses_as_failures():
    """A null response is a recorded transport failure: its turn raises a
    non-retryable error with the recorded text, and the sequence cycles
    through it."""
    base = {"model": "m", "strategy": "blind", "temperature": 1.0}
    transport = transport_from([
        {**base, "response": None, "error": "RetriesExhaustedError: boom"},
        {**base, "response": "kept"}, {**base, "response": None}])
    req = ChatRequest("m", build_prompt(PromptStrategy.BLIND), 1.0)
    for _ in range(2):
        with pytest.raises(RecordedFailureError, match="^RetriesExhaustedError: boom$"):
            transport.send(req)
        assert transport.send(req) == "kept"
        with pytest.raises(RecordedFailureError, match="^recorded query failed$"):
            transport.send(req)
    assert not issubclass(RecordedFailureError, TransientTransportError)


def test_audit_log_replays_as_fixtures(tmp_path):
    """An audit log is a fixture file: replaying it reproduces every record,
    transport failures included."""
    bodies = ['{"alpha_rate": 0.4, "beta_rate": 0.1}', "garbage",
              '{"alpha_rate": 0.8, "beta_rate": 0.3}']
    cfg = make_config(n_queries=3)
    first = elicit_prior(PromptStrategy.BLIND, cfg, _transport_for(bodies))
    failed = ElicitationRecord(
        model="test-model", strategy=PromptStrategy.BLIND, temperature=1.0, response=None,
        timestamp=0.0, failure="RetriesExhaustedError: boom")
    path = tmp_path / "audit.jsonl"
    write_audit_log([failed, *first.records], path)

    replayed = elicit_prior(PromptStrategy.BLIND, make_config(n_queries=4),
                            FixtureTransport.from_path(path))

    def strip(rec):
        return {k: v for k, v in rec.to_json_dict().items() if k != "timestamp"}
    assert [strip(r) for r in replayed.records] == [strip(r) for r in (failed, *first.records)]
    assert replayed.spec == first.spec
    assert read_audit_log(path) == [failed, *first.records]


# ---------------------------------------------------------------- batches

def _transport_for(bodies: list[str], model="test-model", temperature=1.0):
    return transport_from(
        {"model": model, "strategy": "blind", "temperature": temperature,
         "response": b} for b in bodies)


def test_elicit_prior_mean_aggregation():
    transport = _transport_for(['{"alpha_rate": 0.4, "beta_rate": 0.1}',
                                '{"alpha_rate": 0.6, "beta_rate": 0.1}'])
    prior = elicit_prior(PromptStrategy.BLIND, make_config(n_queries=2), transport)
    assert prior.spec.alpha_rate == pytest.approx(0.5)
    assert prior.spec.beta_rate == pytest.approx(0.1)


def test_elicit_prior_five_identical():
    transport = _transport_for(['{"alpha_rate": 0.5, "beta_rate": 0.1}'])
    prior = elicit_prior(PromptStrategy.BLIND, make_config(n_queries=5), transport)
    assert len(prior.records) == 5
    assert prior.n_successes == 5
    assert (prior.spec.alpha_rate, prior.spec.beta_rate) == (0.5, 0.1)


def test_elicit_prior_excludes_failures_from_mean():
    transport = _transport_for([
        '{"alpha_rate": 1.0, "beta_rate": 1.0}',
        'garbage',
        '{"alpha_rate": 2.0, "beta_rate": 2.0}',
        '{"alpha_rate": -5, "beta_rate": 1}',
        '{"alpha_rate": 3.0, "beta_rate": 3.0}',
    ])
    prior = elicit_prior(PromptStrategy.BLIND, make_config(n_queries=5), transport)
    assert prior.spec.alpha_rate == pytest.approx(2.0)
    assert prior.n_successes == 3
    errors = [r for r in prior.records if not r.ok]
    assert len(errors) == 2
    assert all(r.error for r in errors)


def test_elicit_prior_all_failed():
    transport = _transport_for(["nope"])
    with pytest.raises(AllQueriesFailedError, match="all 3 queries failed"):
        elicit_prior(PromptStrategy.BLIND, make_config(n_queries=3), transport)


@settings(max_examples=30, deadline=None)
@given(pairs=st.lists(
    st.tuples(st.floats(min_value=0.01, max_value=100),
              st.floats(min_value=0.01, max_value=100)),
    min_size=1, max_size=8))
def test_elicit_prior_aggregate_in_convex_hull(pairs):
    bodies = [json.dumps({"alpha_rate": a, "beta_rate": b}) for a, b in pairs]
    transport = _transport_for(bodies)
    prior = elicit_prior(PromptStrategy.BLIND,
                         make_config(n_queries=len(bodies)), transport)
    alphas = [a for a, _ in pairs]
    betas = [b for _, b in pairs]
    assert min(alphas) <= prior.spec.alpha_rate <= max(alphas)
    assert min(betas) <= prior.spec.beta_rate <= max(betas)


def test_elicit_prior_mean_of_equal_answers_is_that_answer():
    # np.mean([0.4] * 3) is 0.4000000000000001, outside the answers' hull
    transport = _transport_for(['{"alpha_rate": 0.4, "beta_rate": 1.0}'] * 3)
    prior = elicit_prior(PromptStrategy.BLIND, make_config(n_queries=3), transport)
    assert prior.spec == HyperPriorSpec(0.4, 1.0)


def test_record_derives_parsed_error_and_hash_and_reads_back_equal(tmp_path):
    """A record holds what happened; ``parsed`` or ``error``, never both,
    and ``request_hash`` follow from it, and each record reads back from
    its audit line equal to the record written.  A response's parse error
    is derived again, not stored as a failure."""
    base = dict(model="m", strategy=PromptStrategy.BLIND, temperature=1.0, timestamp=0.0)
    ok = ElicitationRecord(response='{"alpha_rate": 0.5, "beta_rate": 0.1}', **base)
    unparsed = ElicitationRecord(response="garbage", **base)
    failed = ElicitationRecord(response=None, failure="RetriesExhaustedError: boom", **base)
    assert (ok.parsed, ok.error) == ((0.5, 0.1), None)
    assert unparsed.parsed is None and unparsed.error.startswith("ResponseFormatError: ")
    assert (failed.parsed, failed.error) == (None, "RetriesExhaustedError: boom")
    assert {r.request_hash for r in (ok, unparsed, failed)} == {
        _request_hash("m", PromptStrategy.BLIND, 1.0)}
    path = tmp_path / "audit.jsonl"
    write_audit_log([ok, unparsed, failed], path)
    assert read_audit_log(path) == [ok, unparsed, failed]
    assert read_audit_log(path)[1].failure is None


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(temperature=0.0)
    with pytest.raises(ValueError):
        make_config(temperature=2.5)
    with pytest.raises(ValueError):
        make_config(n_queries=0)
    with pytest.raises(ValueError):
        ElicitationConfig(model_id="")
    for backoff_base in (0.0, math.nan, math.inf, 1e300, 86_401.0):
        with pytest.raises(ValueError, match="backoff_base"):
            make_config(backoff_base=backoff_base)
    assert make_config(backoff_base=86_400.0).backoff_base == 86_400.0
    cfg = make_config(temperature=2.0)
    assert cfg.n_queries == 5 and cfg.max_retries == 5


def test_integer_temperature_serves_a_line_recorded_as_float():
    """A temperature of 1 is stored as 1.0, so its batch is the one a line
    recorded at 1.0 answers."""
    cfg = make_config(temperature=1, n_queries=2)
    assert type(cfg.temperature) is float and cfg.temperature == 1.0
    prior = elicit_prior(PromptStrategy.BLIND, cfg,
                         _transport_for(['{"alpha_rate": 0.5, "beta_rate": 0.1}']))
    assert prior.n_successes == 2


def test_numpy_temperature_hashes_as_its_float():
    """A numpy float32 0.5 is stored as the float 0.5, whose request JSON
    can be hashed and is the one a line recorded at 0.5 is filed under."""
    cfg = make_config(temperature=np.float32(0.5), n_queries=1)
    assert type(cfg.temperature) is float and cfg.temperature == 0.5
    prior = elicit_prior(PromptStrategy.BLIND, cfg, _transport_for(
        ['{"alpha_rate": 0.5, "beta_rate": 0.1}'], temperature=0.5))
    assert prior.records[0].request_hash == _request_hash("test-model", PromptStrategy.BLIND, 0.5)


@pytest.mark.parametrize("temperature", [True, "1.0", None])
def test_config_rejects_a_temperature_that_is_not_a_real_number(temperature):
    with pytest.raises(ValueError, match="non-numeric value for temperature"):
        make_config(temperature=temperature)


# ------------------------------------------------------------------- stats

def _request_hash(model: str, strategy: PromptStrategy, temp: float) -> str:
    """The hash of the request for (model, strategy, temp)."""
    return ChatRequest(model, build_prompt(strategy), temp).request_hash()


def _ok_record(model: str, strategy: PromptStrategy, temp: float,
               a: float, b: float) -> ElicitationRecord:
    return ElicitationRecord(model=model, strategy=strategy, temperature=temp,
                             response=json.dumps({"alpha_rate": a, "beta_rate": b}),
                             timestamp=0.0)


def _failed_record(model: str = "m") -> ElicitationRecord:
    return ElicitationRecord(model=model, strategy=PromptStrategy.BLIND, temperature=1.0,
                             response="x", timestamp=0.0)


def _alpha_stats(records) -> dict:
    """The numbers of the first group's alpha_rate row, read back."""
    row = prior_param_rows(records)[0]
    assert row["parameter"] == "alpha_rate"
    return {k: float(v) for k, v in row.items()
            if k not in ("model", "strategy", "temperature", "parameter")}


def test_param_stats_two_values():
    st_ = _alpha_stats([_ok_record("m", PromptStrategy.BLIND, 1.0, a, 1.0) for a in (1.0, 3.0)])
    assert st_["n"] == 2
    assert st_["mean"] == pytest.approx(2.0)
    assert st_["sd"] == pytest.approx(math.sqrt(2.0))
    assert (st_["min"], st_["median"], st_["max"]) == (1.0, 2.0, 3.0)


def test_param_stats_constant_group():
    st_ = _alpha_stats([_ok_record("m", PromptStrategy.BLIND, 1.0, 0.5, 1.0)] * 6)
    assert st_["sd"] == 0.0
    assert st_["q1"] == st_["median"] == st_["q3"] == 0.5


def test_param_stats_empty_group():
    """A group left empty by its failed queries is an error, also beside a
    group with parsed rates."""
    records = [_ok_record("m1", PromptStrategy.BLIND, 1.0, 1.0, 1.0), _failed_record("m2")]
    with pytest.raises(ValueError, match="no parsed records in group .'m2'"):
        prior_param_rows(records)


def test_prior_param_stats_grouping():
    recs = [
        _ok_record("m1", PromptStrategy.BLIND, 1.0, 1.0, 0.1),
        _ok_record("m1", PromptStrategy.BLIND, 1.0, 3.0, 0.3),
        _ok_record("m1", PromptStrategy.DISEASE_INFORMED, 1.0, 9.0, 9.0),
        _ok_record("m2", PromptStrategy.BLIND, 0.1, 5.0, 5.0),
        _failed_record("m1"),
    ]
    rows = prior_param_rows(recs)
    assert [(r["model"], r["strategy"], r["temperature"], r["parameter"]) for r in rows] == [
        (model, strategy, temp, parameter)
        for model, strategy, temp in [("m1", "blind", "1"), ("m1", "disease_informed", "1"),
                                      ("m2", "blind", "0.1")]
        for parameter in ("alpha_rate", "beta_rate")]
    alpha = _alpha_stats(recs)
    assert alpha["n"] == 2
    assert alpha["mean"] == pytest.approx(2.0)
    assert alpha["sd"] == pytest.approx(math.sqrt(2.0))
    assert rows[1]["mean"] == repr(0.2)


def test_prior_param_stats_failed_only_group_raises():
    with pytest.raises(ValueError, match="no parsed records"):
        prior_param_rows([_failed_record()])


def test_write_audit_log(tmp_path):
    recs = [_ok_record("m", PromptStrategy.BLIND, 1.0, 0.5, 0.1)]
    path = tmp_path / "audit.jsonl"
    write_audit_log(recs, path)
    write_audit_log(recs, path)  # appending
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    obj = json.loads(lines[0])
    assert obj["parsed"] == [0.5, 0.1]
    assert obj["strategy"] == "blind"
    assert set(obj) == {"request_hash", "model", "strategy", "temperature",
                        "response", "parsed", "error", "timestamp"}
    assert read_audit_log(path) == recs * 2

"""LLM-backed elicitation of exponential hyperprior rates.

Two fixed prompt variants (blind and disease-informed) are sent verbatim
as a single user message over a chat-completion wire protocol.  Responses
are expected to be a JSON object with positive ``alpha_rate`` and
``beta_rate`` fields, optionally wrapped in a markdown code fence; a batch
of queries is aggregated by arithmetic mean into a HyperPriorSpec.

The transport is pluggable: ``HttpTransport`` talks to a live endpoint
with retry/backoff, ``FixtureTransport`` replays recorded responses from
a JSONL file so experiments are reproducible offline.  Every audit log
written by ``write_audit_log`` is itself a valid fixture file.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import numbers
import os
import re
import time
from dataclasses import dataclass

import numpy as np

from .model import HyperPriorSpec


class PromptStrategy(enum.Enum):
    BLIND = "blind"
    DISEASE_INFORMED = "disease_informed"


# The two prompts differ only in the persona line, the TASK line, an
# inserted Clinical Context block, and the two IMPORTANT bullets; the
# shared blocks below keep every common byte identical.  Note the
# trailing spaces on "Model: " and the Gamma line: they are part of the
# prompt and must survive any reformatting.

_MODEL_BLOCK = (
    "Model: \n"
    "- Each patient i in site j has AE count: y_ij ~ Poisson(lambda_j)\n"
    "- Site-specific rates: lambda_j ~ Gamma(alpha, beta)  \n"
    "- REQUIRED: alpha ~ Exponential(rate_alpha), beta ~ Exponential(rate_beta)\n"
)

_RESPONSE_BLOCK = (
    "RESPOND WITH EXACTLY THIS JSON FORMAT (no markdown, no backticks, no other text):\n"
    "{\n"
    '"alpha_rate": number,\n'
    '"beta_rate": number\n'
    "}\n"
    "\n"
    "Note: Exponential(rate) has mean = 1/rate. Rate must be > 0."
)

_BLIND_PROMPT = (
    "You are a biostatistics expert specializing in clinical trials and Bayesian analysis.\n"
    "\n"
    "TASK: Provide ONLY rate parameters for exponential priors in a hierarchical Bayesian model.\n"
    "\n"
    + _MODEL_BLOCK
    + "\n"
    "IMPORTANT:\n"
    "- Use your expert knowledge and draw on published clinical trials, empirical data,"
    " or established domain knowledge to set informative (not weakly-informative or"
    " non-informative) prior rates.\n"
    "- Avoid using vague or default values. Base your answer on realistic clinical data"
    " or strong prior experience relevant to typical AE rates in multi-center trials.\n"
    "\n"
    + _RESPONSE_BLOCK
)

_DISEASE_INFORMED_PROMPT = (
    "You are a biostatistics expert specializing in oncology clinical trials and Bayesian analysis.\n"
    "\n"
    "TASK: Provide ONLY rate parameters for exponential priors based on NSCLC control arm data.\n"
    "\n"
    "Clinical Context:\n"
    "- Disease: Non-small cell lung cancer (NSCLC)\n"
    "- Treatment: Control arm (placebo/standard care)\n"
    "- Population: Adult oncology patients\n"
    "- Study: Multi-center RCT\n"
    "\n"
    + _MODEL_BLOCK
    + "\n"
    "IMPORTANT:\n"
    "- Use your expert knowledge and draw on published clinical trials, empirical data,"
    " or established domain knowledge specific to NSCLC control arms to set informative"
    " (not weakly-informative or non-informative) prior rates.\n"
    "- Avoid using vague or default values. Base your answer on realistic NSCLC control"
    " arm data or strong prior experience relevant to typical AE rates in multi-center"
    " oncology trials.\n"
    "\n"
    + _RESPONSE_BLOCK
)


def build_prompt(strategy: PromptStrategy) -> str:
    """Return the exact prompt text for the given strategy."""
    if strategy is PromptStrategy.BLIND:
        return _BLIND_PROMPT
    if strategy is PromptStrategy.DISEASE_INFORMED:
        return _DISEASE_INFORMED_PROMPT
    raise ValueError(f"unknown prompt strategy: {strategy!r}")


class ElicitationError(RuntimeError):
    """Base class for elicitation failures."""


class AuthenticationError(ElicitationError):
    """The endpoint rejected our credentials; retrying cannot help."""


class TransientTransportError(ElicitationError):
    """Rate limit, server error, or connection problem; safe to retry."""


class TransportTimeout(TransientTransportError):
    """The request timed out."""


class RetriesExhaustedError(ElicitationError):
    def __init__(self, attempts: int, last_error: Exception):
        super().__init__(f"giving up after {attempts} attempts: {last_error}")
        self.attempts = attempts
        self.last_error = last_error


class ResponseFormatError(ElicitationError):
    """The response body could not be parsed into prior rates."""


class AllQueriesFailedError(ElicitationError):
    """Every query in a batch failed to parse."""


class FixtureMissError(ElicitationError):
    """No recorded response matches the request."""


@dataclass(frozen=True)
class ElicitationConfig:
    """Settings for one batch of elicitation queries."""

    model_id: str
    temperature: float = 1.0
    n_queries: int = 5
    max_retries: int = 5
    backoff_base: float = 1.0
    strict: bool = False

    def __post_init__(self):
        if not self.model_id:
            raise ValueError("model_id must be non-empty")
        if not 0.0 < self.temperature <= 2.0:
            raise ValueError(f"temperature must be in (0, 2], got {self.temperature}")
        if self.n_queries < 1:
            raise ValueError("n_queries must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0 < self.backoff_base < math.inf:
            raise ValueError(
                f"backoff_base must be positive and finite, got {self.backoff_base}")


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion request; the prompt is the sole user message."""

    model: str
    prompt: str
    temperature: float

    def payload(self) -> dict:
        return {
            "model": self.model,
            "messages": [{"role": "user", "content": self.prompt}],
            "temperature": self.temperature,
        }

    def request_hash(self) -> str:
        canonical = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ElicitationRecord:
    """Audit record of a single query: either a parsed pair or an error.

    Its JSON form is a superset of a fixture record, so an audit log
    replays through ``FixtureTransport``.  ``response`` is None when the
    transport itself failed.
    """

    request_hash: str
    model: str
    strategy: PromptStrategy
    temperature: float
    response: str | None
    parsed: tuple[float, float] | None
    error: str | None
    timestamp: float

    def __post_init__(self):
        if (self.parsed is None) == (self.error is None):
            raise ValueError("exactly one of parsed/error must be set")

    @property
    def ok(self) -> bool:
        return self.parsed is not None

    def to_json_dict(self) -> dict:
        return {
            "request_hash": self.request_hash,
            "model": self.model,
            "strategy": self.strategy.value,
            "temperature": self.temperature,
            "response": self.response,
            "parsed": list(self.parsed) if self.parsed else None,
            "error": self.error,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ElicitationRecord":
        parsed = obj["parsed"]
        if parsed is not None:
            alpha_rate, beta_rate = parsed
            parsed = (float(alpha_rate), float(beta_rate))
        return cls(request_hash=obj["request_hash"], model=obj["model"],
                   strategy=PromptStrategy(obj["strategy"]),
                   temperature=float(obj["temperature"]),
                   response=obj["response"], parsed=parsed, error=obj["error"],
                   timestamp=float(obj["timestamp"]))


@dataclass(frozen=True)
class AggregatedPrior:
    """Arithmetic-mean aggregate of the successful queries in a batch."""

    spec: HyperPriorSpec
    records: tuple[ElicitationRecord, ...]

    @property
    def n_successes(self) -> int:
        return sum(r.ok for r in self.records)


class HttpTransport:
    """Live chat-completion endpoint speaking the standard wire protocol."""

    def __init__(self, endpoint_url: str, api_key: str | None = None,
                 timeout: float = 60.0):
        if not 0 < timeout < math.inf:
            raise ValueError(f"timeout must be positive and finite, got {timeout}")
        self.endpoint_url = endpoint_url
        self.api_key = api_key
        self.timeout = timeout

    def send(self, request: ChatRequest) -> str:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = requests.post(self.endpoint_url, json=request.payload(),
                                 headers=headers, timeout=self.timeout)
        except requests.Timeout as exc:
            raise TransportTimeout(f"request timed out after {self.timeout}s") from exc
        except requests.ConnectionError as exc:
            raise TransientTransportError(f"connection failed: {exc}") from exc

        if resp.status_code in (401, 403):
            raise AuthenticationError(
                f"endpoint rejected credentials (HTTP {resp.status_code})")
        if resp.status_code == 429 or resp.status_code >= 500:
            raise TransientTransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        if resp.status_code != 200:
            raise ElicitationError(f"HTTP {resp.status_code}: {resp.text[:200]}")

        try:
            body = resp.json()
            content = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ResponseFormatError(
                f"malformed completion body: {resp.text[:200]}") from exc
        if not isinstance(content, str):
            raise ResponseFormatError("assistant message content is not text")
        return content


def _read_jsonl(path: str | os.PathLike, parse) -> list:
    """Apply ``parse`` to each JSON line of a file; errors, a line that is
    not UTF-8 among them, name file and line."""
    out = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                out.append(parse(json.loads(line)))
            except KeyError as exc:
                raise ElicitationError(
                    f"{path}: line {lineno}: record missing {exc.args[0]!r}") from exc
            except (ElicitationError, ValueError, TypeError) as exc:
                raise ElicitationError(
                    f"{path}: line {lineno}: invalid record: {exc}") from exc
    return out


class FixtureTransport:
    """Replays recorded responses keyed by request hash.

    The fixture file is JSONL; each line holds either an explicit
    ``request_hash`` or enough fields (model, strategy, temperature) to
    recompute it, plus the raw ``response`` body.  Audit logs qualify.
    Records whose ``response`` is null (transport failures) are skipped.
    Responses for the same request are served in file order and cycle
    when exhausted, so a batch larger than the recording still gets
    deterministic answers.
    """

    def __init__(self, records: list[dict] | None = None):
        self._responses: dict[str, list[str]] = {}
        self._cursor: dict[str, int] = {}
        for rec in records or []:
            self.add_record(rec)

    @classmethod
    def from_path(cls, path: str | os.PathLike) -> "FixtureTransport":
        transport = cls()
        _read_jsonl(path, transport.add_record)
        return transport

    def add_record(self, rec: dict) -> None:
        if "response" not in rec:
            raise ElicitationError(f"fixture record missing 'response': {rec!r}")
        key = rec.get("request_hash")
        if key is None:
            try:
                strategy = PromptStrategy(rec["strategy"])
                request = ChatRequest(model=rec["model"],
                                      prompt=build_prompt(strategy),
                                      temperature=float(rec["temperature"]))
            except (KeyError, ValueError) as exc:
                raise ElicitationError(
                    f"fixture record needs request_hash or model/strategy/temperature: {rec!r}"
                ) from exc
            key = request.request_hash()
        if rec["response"] is not None:
            self._responses.setdefault(key, []).append(rec["response"])

    def send(self, request: ChatRequest) -> str:
        key = request.request_hash()
        responses = self._responses.get(key)
        if not responses:
            raise FixtureMissError(
                f"no recorded response for model={request.model!r} "
                f"temperature={request.temperature}"
            )
        i = self._cursor.get(key, 0)
        self._cursor[key] = (i + 1) % len(responses)
        return responses[i]


def query_llm(prompt: str, config: ElicitationConfig, transport) -> str:
    """Send one chat request, retrying transient failures with doubling backoff."""
    request = ChatRequest(model=config.model_id, prompt=prompt,
                          temperature=config.temperature)
    attempts = 0
    delay = config.backoff_base
    while True:
        attempts += 1
        try:
            return transport.send(request)
        except TransientTransportError as exc:
            if attempts > config.max_retries:
                raise RetriesExhaustedError(attempts, exc) from exc
            time.sleep(delay)
            delay *= 2.0


_FENCE_RE = re.compile(r"\A```[A-Za-z0-9_+-]*[ \t]*\r?\n(.*?)\r?\n?```\s*\Z", re.DOTALL)


def _require_rate(obj: dict, name: str) -> float:
    if name not in obj:
        raise ResponseFormatError(f"missing field: {name}")
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ResponseFormatError(f"non-numeric value for {name}: {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ResponseFormatError(f"non-finite value for {name}: {value}")
    if value <= 0:
        raise ResponseFormatError(f"non-positive value for {name}: {value}")
    return value


def parse_response(raw: str) -> tuple[float, float]:
    """Extract (alpha_rate, beta_rate) from a response body.

    Tolerates a single surrounding markdown code fence (with or without a
    language tag) and extra JSON fields; everything else must be a JSON
    object with positive numeric rates.
    """
    text = raw.strip()
    fence = _FENCE_RE.match(text)
    if fence:
        text = fence.group(1).strip()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ResponseFormatError(f"unparseable body: {exc}") from exc
    if not isinstance(obj, dict):
        raise ResponseFormatError(f"expected JSON object, got {type(obj).__name__}")
    return _require_rate(obj, "alpha_rate"), _require_rate(obj, "beta_rate")


def _run_one_query(strategy: PromptStrategy, prompt: str, request_hash: str,
                   config: ElicitationConfig, transport) -> ElicitationRecord:
    response = parsed = error = None
    try:
        response = query_llm(prompt, config, transport)
        parsed = parse_response(response)
    except ElicitationError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return ElicitationRecord(
        request_hash=request_hash, model=config.model_id, strategy=strategy,
        temperature=config.temperature, response=response, parsed=parsed,
        error=error, timestamp=time.time(),
    )


def elicit_prior(strategy: PromptStrategy, config: ElicitationConfig,
                 transport) -> AggregatedPrior:
    """Run ``n_queries`` query/parse cycles and aggregate by arithmetic mean.

    Failed parses are kept in the audit records but excluded from the
    mean; the batch fails only when every query fails (or immediately in
    strict mode).  Records are ordered by request index.
    """
    prompt = build_prompt(strategy)
    request_hash = ChatRequest(model=config.model_id, prompt=prompt,
                               temperature=config.temperature).request_hash()
    records = tuple(_run_one_query(strategy, prompt, request_hash, config, transport)
                    for _ in range(config.n_queries))

    failures = [r for r in records if not r.ok]
    if config.strict and failures:
        raise AllQueriesFailedError(
            f"strict mode: {len(failures)} of {len(records)} queries failed; "
            f"first error: {failures[0].error}"
        )
    successes = [r.parsed for r in records if r.ok]
    if not successes:
        raise AllQueriesFailedError(
            f"all {len(records)} queries failed; first error: {records[0].error}"
        )
    alphas = [p[0] for p in successes]
    betas = [p[1] for p in successes]
    spec = HyperPriorSpec(alpha_rate=_hull_mean(alphas), beta_rate=_hull_mean(betas))
    return AggregatedPrior(spec=spec, records=records)


def _hull_mean(values: list[float]) -> float:
    """Arithmetic mean, clamped to [min, max]: rounding can carry the mean
    of equal values just past them (three 0.4s average 0.4000000000000001)."""
    return min(max(float(np.mean(values)), min(values)), max(values))


@dataclass(frozen=True)
class ParamStats:
    """Boxplot-ready summary of one parameter within one condition group."""

    n: int
    mean: float
    sd: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @classmethod
    def from_values(cls, values: list[float]) -> "ParamStats":
        if not values:
            raise ValueError("empty group")
        arr = np.asarray(values, dtype=np.float64)
        q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
        sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        return cls(n=arr.size, mean=float(arr.mean()), sd=sd,
                   minimum=float(arr.min()), q1=float(q1), median=float(med),
                   q3=float(q3), maximum=float(arr.max()))


GroupKey = tuple[str, str, float]  # (model, strategy value, temperature)


def prior_param_stats(
    records,
) -> dict[GroupKey, dict[str, ParamStats]]:
    """Distribution statistics of elicited rates per (model, strategy, temperature).

    Every successfully parsed record contributes one point; groups with no
    parsed records are an error.
    """
    grouped: dict[GroupKey, dict[str, list[float]]] = {}
    for rec in records:
        key = (rec.model, rec.strategy.value, rec.temperature)
        bucket = grouped.setdefault(key, {"alpha_rate": [], "beta_rate": []})
        if rec.ok:
            bucket["alpha_rate"].append(rec.parsed[0])
            bucket["beta_rate"].append(rec.parsed[1])
    out: dict[GroupKey, dict[str, ParamStats]] = {}
    for key, bucket in grouped.items():
        if not bucket["alpha_rate"]:
            raise ValueError(f"no parsed records in group {key}")
        out[key] = {name: ParamStats.from_values(vals)
                    for name, vals in bucket.items()}
    return out


def write_audit_log(records, path: str | os.PathLike) -> None:
    """Append elicitation records to a JSONL audit file."""
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n")


def read_audit_log(path: str | os.PathLike) -> list[ElicitationRecord]:
    """Read the records of a JSONL audit file written by ``write_audit_log``."""
    return _read_jsonl(path, ElicitationRecord.from_json_dict)

"""LLM-backed elicitation of exponential hyperprior rates.

Two fixed prompt variants (blind and disease-informed) are sent verbatim
as a single user message over a chat-completion wire protocol.  Responses
are expected to be a JSON object with positive ``alpha_rate`` and
``beta_rate`` fields, optionally wrapped in a markdown code fence; a batch
of queries is aggregated by arithmetic mean into a HyperPriorSpec.

The transport is pluggable: ``HttpTransport`` talks to a live endpoint
with retry/backoff, ``FixtureTransport`` replays recorded responses from
a JSONL file so experiments are reproducible offline.  A fixture file and
an audit log are one format with one reader, ``read_audit_log``, which
checks each line in ``ElicitationRecord.from_json_dict``.  A batch's one
``ChatRequest`` is its identity, and a replay files each record under the
request its model, strategy and temperature make.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import os
import re
import time
from dataclasses import dataclass

from .model import ElicitationError, HyperPriorSpec, PromptStrategy


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


class AuthenticationError(ElicitationError):
    """The endpoint rejected our credentials; retrying cannot help."""


class TransientTransportError(ElicitationError):
    """Rate limit, server error, or connection problem; safe to retry."""


class RetriesExhaustedError(ElicitationError):
    def __init__(self, attempts: int, last_error: Exception):
        super().__init__(f"giving up after {attempts} attempts: {last_error}")
        self.attempts = attempts
        self.last_error = last_error


class ResponseFormatError(ElicitationError):
    """The response body could not be parsed into prior rates."""


class AllQueriesFailedError(ElicitationError):
    """Every query in a batch failed to parse; the failed records are in
    the ``audit`` list passed to ``elicit_prior``."""


class FixtureMissError(ElicitationError):
    """No recorded response matches the request."""


class RecordedFailureError(ElicitationError):
    """A replayed query that failed when it was recorded (a null
    ``response``); its audit record carries the recorded ``error`` text."""


# the longest backoff_base or request timeout, in seconds (one day); far
# larger values overflow time.sleep and socket timeouts
MAX_WAIT_S = 86_400.0


@dataclass(frozen=True)
class ElicitationConfig:
    """Settings for one batch of elicitation queries.  ``temperature`` is
    stored as a float, so 1 and 1.0 name the same batch."""

    model_id: str
    temperature: float = 1.0
    n_queries: int = 5
    max_retries: int = 5
    backoff_base: float = 1.0

    def __post_init__(self):
        if not self.model_id:
            raise ValueError("model_id must be non-empty")
        object.__setattr__(self, "temperature", _temperature(self.temperature))
        if self.n_queries < 1:
            raise ValueError("n_queries must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0 < self.backoff_base <= MAX_WAIT_S:
            raise ValueError(f"backoff_base must be positive and at most {MAX_WAIT_S:g} s, "
                             f"got {self.backoff_base}")


@dataclass(frozen=True)
class CvCondition:
    """A prior source: the fixed meta-analytical baseline (neither field
    set) or one LLM elicitation, a prompt strategy with the settings of its
    query batch (model, temperature, queries, retries)."""

    strategy: PromptStrategy | None = None
    elicit: ElicitationConfig | None = None

    def __post_init__(self):
        if (self.strategy is None) != (self.elicit is None):
            raise ValueError("set both strategy and elicit or neither")

    @classmethod
    def meta_analytical(cls) -> "CvCondition":
        return cls()

    @property
    def is_llm(self) -> bool:
        return self.elicit is not None

    def identity(self) -> str:
        """Stable name used in results and reports; independent of the
        condition's position in the run."""
        if not self.is_llm:
            return "meta_analytical"
        return f"{self.elicit.model_id}|{self.strategy.value}|T={self.elicit.temperature:g}"


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
        """The sha256 of the payload's canonical JSON."""
        canonical = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=128)  # a log repeats a few identities on many lines
def _request_hash(model: str, strategy: PromptStrategy, temperature: float) -> str:
    return ChatRequest(model, build_prompt(strategy), temperature).request_hash()


@dataclass(frozen=True)
class ElicitationRecord:
    """Audit record of a single query: what was asked and what came back.

    ``response`` is None when the transport itself failed, and ``failure``
    then holds its text.  The rest follows from these fields, cached per
    record: ``parsed`` and ``error`` from the response, and
    ``request_hash`` from the model, strategy and temperature.  The JSON
    form writes them too, for readers of the log; ``from_json_dict``
    reads back the stored facts alone.  ``timestamp`` is None for a line
    recorded without one, as a hand-written fixture line may be.
    """

    model: str
    strategy: PromptStrategy
    temperature: float
    response: str | None
    timestamp: float | None
    failure: str | None = None

    @functools.cached_property
    def _outcome(self) -> tuple[tuple[float, float] | None, str | None]:
        """(parsed, error): the rates parsed from the response, or the error
        text, which for a query without a response is its ``failure``."""
        if self.response is None:
            return None, self.failure or "recorded query failed"
        try:
            return parse_response(self.response), None
        except ResponseFormatError as exc:
            return None, f"{type(exc).__name__}: {exc}"

    @property
    def parsed(self) -> tuple[float, float] | None:
        return self._outcome[0]

    @property
    def error(self) -> str | None:
        return self._outcome[1]

    @property
    def ok(self) -> bool:
        return self.parsed is not None

    @property
    def request_hash(self) -> str:
        return _request_hash(self.model, self.strategy, self.temperature)

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
    def from_json_dict(cls, obj) -> "ElicitationRecord":
        """Check one line of a fixture file or audit log and read its record.

        The line needs the model, strategy and temperature of its request,
        the temperature in a batch's range, (0, 2], and a ``response``,
        a string or null.  Its ``error`` is read only beside a null
        ``response``, its ``request_hash`` and ``parsed`` never, and its
        ``timestamp`` is optional."""
        if not isinstance(obj, dict):
            raise ElicitationError(f"expected a JSON object, got {obj!r}")
        if "response" not in obj:
            raise ElicitationError(f"record missing 'response': {obj!r}")
        for name in ("response", "error"):
            if not isinstance(obj.get(name), (str, type(None))):
                raise ElicitationError(f"{name!r} must be a string or null, got {obj[name]!r}")
        if "model" in obj and not (isinstance(obj["model"], str) and obj["model"]):
            raise ElicitationError(f"'model' must be a non-empty string, got {obj['model']!r}")
        try:
            model, strategy = obj["model"], PromptStrategy(obj["strategy"])
            temperature = _temperature(obj["temperature"])
        except KeyError as exc:
            raise ElicitationError(f"record missing {exc.args[0]!r} (a line gives model, strategy "
                                   f"and temperature): {obj!r}") from exc
        except ValueError as exc:
            raise ElicitationError(f"invalid strategy or temperature: {exc}") from exc
        response, timestamp = obj["response"], obj.get("timestamp")
        return cls(model, strategy, temperature, response=response,
                   timestamp=None if timestamp is None else float(timestamp),
                   failure=obj.get("error") if response is None else None)


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
        if not 0 < timeout <= MAX_WAIT_S:
            raise ValueError(f"timeout must be positive and at most {MAX_WAIT_S:g} s, "
                             f"got {timeout}")
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
            raise TransientTransportError(f"request timed out after {self.timeout}s") from exc
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


class FixtureTransport:
    """Replays recorded responses to the requests they were recorded for.

    Each ``ElicitationRecord`` is filed under the ``ChatRequest`` its
    model, strategy and temperature make; ``from_path`` reads them from a
    fixture file or audit log with ``read_audit_log``.  Responses for the
    same request are served in record order, and a record without one (a
    transport failure) raises ``RecordedFailureError`` with its ``error``
    text, so an audit log replays exactly.  They cycle when exhausted, so a
    batch larger than the recording still gets deterministic answers.
    """

    def __init__(self, records):
        self._records: dict[ChatRequest, list[ElicitationRecord]] = {}
        self._cursor: dict[ChatRequest, int] = {}
        for rec in records:
            request = ChatRequest(rec.model, build_prompt(rec.strategy), rec.temperature)
            self._records.setdefault(request, []).append(rec)

    @classmethod
    def from_path(cls, path: str | os.PathLike) -> "FixtureTransport":
        return cls(read_audit_log(path))

    def send(self, request: ChatRequest) -> str:
        records = self._records.get(request)
        if not records:
            raise FixtureMissError(
                f"no recorded response for model={request.model!r} "
                f"temperature={request.temperature}"
            )
        i = self._cursor.get(request, 0)
        self._cursor[request] = (i + 1) % len(records)
        if records[i].response is None:
            raise RecordedFailureError(records[i].error)
        return records[i].response


def query_llm(request: ChatRequest, config: ElicitationConfig, transport) -> str:
    """Send ``request`` once, retrying transient failures with doubling
    backoff from ``config.backoff_base`` up to ``config.max_retries`` times."""
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


def _real(value, name: str, error: type[Exception] = ValueError) -> float:
    """A rate or temperature as a float: a real number, not a bool, else ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"non-numeric value for {name}: {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise error(f"non-finite value for {name}: out of range") from None


def _temperature(value) -> float:
    """A batch's or a recorded line's temperature as a float in (0, 2], else ValueError."""
    temperature = _real(value, "temperature")
    if not 0.0 < temperature <= 2.0:
        raise ValueError(f"temperature must be in (0, 2], got {temperature}")
    return temperature


def _require_rate(obj: dict, name: str) -> float:
    if name not in obj:
        raise ResponseFormatError(f"missing field: {name}")
    value = _real(obj[name], name, ResponseFormatError)
    if not math.isfinite(value):
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
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise ResponseFormatError(f"unparseable body: {exc}") from exc
    if not isinstance(obj, dict):
        raise ResponseFormatError(f"expected JSON object, got {type(obj).__name__}")
    return _require_rate(obj, "alpha_rate"), _require_rate(obj, "beta_rate")


def elicit_prior(strategy: PromptStrategy, config: ElicitationConfig, transport,
                 audit: list[ElicitationRecord] | None = None) -> AggregatedPrior:
    """Run ``n_queries`` query/parse cycles and aggregate by arithmetic mean.

    Failed queries are kept in the audit records but excluded from the
    mean; the batch fails only when every query fails.  Records are
    ordered by request index, and each is also appended to ``audit`` as
    its query completes, so that list holds every query sent even when
    the batch fails (``AllQueriesFailedError``) or is interrupted.
    """
    request = ChatRequest(model=config.model_id, prompt=build_prompt(strategy),
                          temperature=config.temperature)
    records = []
    for _ in range(config.n_queries):
        response = failure = None
        try:
            response = query_llm(request, config, transport)
        except ElicitationError as exc:
            failure = (str(exc) if isinstance(exc, RecordedFailureError)
                       else f"{type(exc).__name__}: {exc}")
        records.append(ElicitationRecord(
            model=config.model_id, strategy=strategy, temperature=config.temperature,
            response=response, timestamp=time.time(), failure=failure))
        if audit is not None:
            audit.append(records[-1])

    successes = [r.parsed for r in records if r.ok]
    if not successes:
        raise AllQueriesFailedError(
            f"all {len(records)} queries failed; first error: {records[0].error}")
    alphas = [p[0] for p in successes]
    betas = [p[1] for p in successes]
    spec = HyperPriorSpec(alpha_rate=_hull_mean(alphas), beta_rate=_hull_mean(betas))
    return AggregatedPrior(spec=spec, records=tuple(records))


def _hull_mean(values: list[float]) -> float:
    """Arithmetic mean, clamped to [min, max]: rounding can carry the mean
    of equal values just past them (three 0.4s average 0.4000000000000001).
    Rates whose sum passes the float range are averaged as sum(v / n)."""
    import numpy as np
    with np.errstate(over="ignore"):
        mean = float(np.mean(values))
        if math.isinf(mean):
            mean = float(np.sum(np.divide(values, len(values))))
    return min(max(mean, min(values)), max(values))


def prior_param_rows(records) -> list[dict]:
    """The rows of ``prior_param_stats.csv``: per (model, strategy,
    temperature) group, in that order, and per rate, the count, mean, SD
    and quartiles of the group's parsed rates; a group with none is an
    error."""
    import numpy as np
    grouped: dict[tuple[str, str, float], list[tuple[float, float]]] = {}
    for rec in records:
        pairs = grouped.setdefault((rec.model, rec.strategy.value, rec.temperature), [])
        if rec.ok:
            pairs.append(rec.parsed)
    rows = []
    for (model, strategy, temperature), pairs in sorted(grouped.items()):
        if not pairs:
            raise ValueError(f"no parsed records in group {(model, strategy, temperature)}")
        for parameter, values in zip(("alpha_rate", "beta_rate"), zip(*pairs)):
            arr = np.asarray(values, dtype=np.float64)
            q1, median, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
            mean, scale = _hull_mean(values), 1.0
            # the SD about that mean; where the sum of squares passes the
            # float range, it is taken on the rates scaled by the largest
            with np.errstate(over="ignore"):
                squares = np.sum(np.square(arr - mean))
                if not math.isfinite(squares):
                    scale = arr.max()
                    squares = np.sum(np.square(arr / scale - mean / scale))
            sd = float(scale * math.sqrt(squares / (arr.size - 1))) if arr.size > 1 else 0.0
            rows.append({
                "model": model, "strategy": strategy, "temperature": f"{temperature:g}",
                "parameter": parameter, "n": arr.size, "mean": repr(mean),
                "sd": repr(sd), "min": repr(float(arr.min())), "q1": repr(float(q1)),
                "median": repr(float(median)), "q3": repr(float(q3)),
                "max": repr(float(arr.max())),
            })
    return rows


def write_audit_log(records, path: str | os.PathLike) -> None:
    """Append elicitation records to a JSONL audit file."""
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n")


def read_audit_log(path: str | os.PathLike) -> list[ElicitationRecord]:
    """Read the records of a JSONL fixture file or audit log, one per
    non-blank line (``ElicitationRecord.from_json_dict``); errors, a line
    that is not UTF-8 among them, name file and line."""
    records = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8-sig")  # a leading byte-order mark reads as nothing
                if not line.strip():
                    continue
                records.append(ElicitationRecord.from_json_dict(json.loads(line)))
            except (ElicitationError, ValueError, TypeError, OverflowError,
                    RecursionError) as exc:
                raise ElicitationError(
                    f"{path}: line {lineno}: invalid record: {exc}") from exc
    return records

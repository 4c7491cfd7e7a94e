"""Command-line front end.

Subcommands: ingest, elicit, fit, cv, efficiency, report.  Settings are the
``RunConfig`` fields.  They come from an optional ``key = value`` file with
the flags laid over it; a flag that sets a key takes the key's own syntax
(comma lists drop empty parts, so an empty value is an empty list), and the
singular ``--model``, ``--strategy`` and ``--temperature`` set one-element
lists.  Every setting is checked once, before any query is sent or any
output written.  Each LLM condition a command runs is a ``CvCondition``
holding its own ``ElicitationConfig``, which is built, and so checked,
once.  Each command then checks that its output directories can be made,
before it loads data or sends a query.  Secrets only ever come from the
environment (LLM_API_KEY, endpoint override via LLM_ENDPOINT).
Everything that writes does so atomically (temp file + rename),
``fit``'s draws included, except ``elicit``, which appends to its audit
log.  The commands that query collect every elicitation record in one
list and write it to the audit log on every exit path; a ``cv`` or
``efficiency`` run that fails there also removes its own earlier tables
and report.  Warnings print as one ``warning: <message>`` line each.
All randomness flows from the single seed.

Parsing and checking settings, and ``ingest``, load no numpy: ``fit``,
``cv`` and ``efficiency`` import the sampler and the experiment modules
once their settings are checked, and ``elicit`` and ``report`` import
numpy to average and summarize the elicited rates.  Only the commands that
elicit or read elicitation records (``elicit``, ``cv``, ``efficiency`` and
``report``) import ``elicitation``; ``ingest`` and ``fit`` never load it.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 network or
elicitation failure, 5 numerical failure.  An output file that cannot be
written is a configuration error, and an audit log that ``report`` cannot
read a data error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import csv
import os
import re
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import __version__
from .data import DataError, load_dataset, summarize
from .model import (DEFAULT_RHO_GRID, META_ANALYTICAL, ElicitationError, HyperPriorSpec,
                    McmcConfig, NumericalError, PromptStrategy)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NETWORK = 4
EXIT_NUMERICAL = 5

DEFAULT_ENDPOINT = "http://localhost:8000/v1/chat/completions"
ENDPOINT_ENV_VAR = "LLM_ENDPOINT"
API_KEY_ENV_VAR = "LLM_API_KEY"


class ConfigError(ValueError):
    pass


_DEFAULT_MODELS = ("llama-3.3-70b-instruct", "medgemma-27b-it")
_DEFAULT_TEMPERATURES = (0.1, 0.5, 1.0)
_DEFAULT_STRATEGIES = ("blind", "disease_informed")


@dataclass
class RunConfig:
    """Everything a command needs; file keys mirror the field names."""

    dataset: str | None = None
    out: str | None = None  # output root; commands fall back to ./out
    seed: int = 0
    n_jobs: int = 1
    # fit's chains; checked for every command, read by fit alone
    n_chains: int = 4
    n_warmup: int = 1000
    n_draws: int = 1000
    # elicitation
    endpoint: str = DEFAULT_ENDPOINT
    models: tuple[str, ...] = _DEFAULT_MODELS
    strategies: tuple[str, ...] = _DEFAULT_STRATEGIES
    temperatures: tuple[float, ...] = _DEFAULT_TEMPERATURES
    n_queries: int = 5
    max_retries: int = 5
    backoff_base: float = 1.0
    timeout: float = 60.0
    fixtures: str | None = None
    live: bool = False
    # experiments
    k: int = 5
    rho_grid: tuple[float, ...] = DEFAULT_RHO_GRID
    n_replications: int = 20

    def mcmc_config(self, **overrides) -> McmcConfig:
        kwargs = dict(n_chains=self.n_chains, n_warmup=self.n_warmup,
                      n_draws=self.n_draws, seed=self.seed)
        kwargs.update(overrides)
        try:
            return McmcConfig(**kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def elicitation_config(self, model_id: str, temperature: float) -> ElicitationConfig:
        from .elicitation import ElicitationConfig
        try:
            return ElicitationConfig(
                model_id=model_id,
                temperature=temperature,
                n_queries=self.n_queries,
                max_retries=self.max_retries,
                backoff_base=self.backoff_base,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOLEANS = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}
# a comment starts at a '#' that begins the line or follows whitespace, so
# values such as URL fragments keep theirs
_COMMENT_RE = re.compile(r"(?:^|\s)#")


def _split(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# how a setting's text is parsed, by its RunConfig field type, and what an
# error says was expected; any other field keeps the text
_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": (lambda raw: _BOOLEANS[raw.strip().lower()],
             "boolean (true/yes/1, false/no/0)"),
    "tuple[str, ...]": (_split, None),
    "tuple[float, ...]": (lambda raw: tuple(map(float, _split(raw))),
                          "comma-separated numbers"),
}


def _coerce_config_value(key: str, raw: str, source: str):
    """Parse one setting's text, from a config line or a flag alike; errors
    start with ``source``."""
    parse, expected = _PARSERS.get(_FIELD_TYPES[key], (str, None))
    try:
        return parse(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{source} got {raw!r}, expected {expected}") from None


def load_config(path: str | os.PathLike) -> RunConfig:
    """Parse a line-oriented ``key = value`` file (whitespace-led # starts a comment)."""
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8 text ({exc.reason})") from exc
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}  # the line that set each key
    for lineno, line in enumerate(lines, start=1):
        stripped = _COMMENT_RE.split(line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}: line {lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ConfigError(f"{path}: line {lineno}: config key {key!r} already set "
                              f"on line {set_on[key]}")
        set_on[key] = lineno
        values[key] = _coerce_config_value(key, raw, f"{path}: line {lineno}: {key}")
    return RunConfig(**values)


class _Setting(argparse.Action):
    """A flag (or positional) that sets the RunConfig field named by its dest.
    It keeps the raw text with the option given, so ``_resolve_config``
    parses it as a file line and names the flag in errors."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, (option_string or self.dest, values))


def _parse_strategy(name: str) -> PromptStrategy:
    try:
        return PromptStrategy(name)
    except ValueError as exc:
        valid = ", ".join(s.value for s in PromptStrategy)
        raise ConfigError(f"unknown strategy {name!r} (expected one of: {valid})") from exc


def _llm_conditions(cfg: RunConfig, command: str) -> list[CvCondition]:
    """The LLM conditions a command elicits: ``cv`` crosses models,
    strategies and temperatures; ``elicit`` takes the first of each,
    ``efficiency`` the first model and strategy with the last temperature.
    Building each condition's ``ElicitationConfig`` checks its settings."""
    if command == "cv":
        keys = [(model, strategy, temperature) for model in cfg.models
                for strategy in cfg.strategies for temperature in cfg.temperatures]
    elif command in ("elicit", "efficiency"):
        for what, values in (("model id", cfg.models), ("strategy", cfg.strategies),
                             ("temperature", cfg.temperatures)):
            if not values:
                raise ConfigError(f"a {what} is required (flag or config)")
        keys = [(cfg.models[0], cfg.strategies[0],
                 cfg.temperatures[-1 if command == "efficiency" else 0])]
    else:
        return []
    from .elicitation import CvCondition
    return [CvCondition(strategy=_parse_strategy(strategy),
                        elicit=cfg.elicitation_config(model, temperature))
            for model, strategy, temperature in keys]


def _check_config(cfg: RunConfig) -> None:
    """Check every setting before anything is queried or written; ``cmd_cv``
    checks k against the sites once the dataset is loaded."""
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1, got {cfg.n_jobs}")
    if cfg.k < 2:
        raise ConfigError(f"k must be >= 2, got {cfg.k}")
    if cfg.n_replications < 1:
        raise ConfigError(f"n_replications must be >= 1, got {cfg.n_replications}")
    if not cfg.rho_grid:
        raise ConfigError("rho_grid must not be empty")
    for rho in cfg.rho_grid:
        if not 0.0 < rho <= 1.0:
            raise ConfigError(f"rho_grid values must be in (0, 1], got {rho}")
    # a repeat would run two cells or conditions under one name; numbers
    # are named by their :g text, so 0.5 and 0.5000001 would share a row
    for key in ("rho_grid", "models", "strategies", "temperatures"):
        seen = {}
        for value in getattr(cfg, key):
            name = f"{value:g}" if isinstance(value, float) else value
            if name in seen:
                raise ConfigError(f"{key} must not repeat a value, got {seen[name]!r} "
                                  f"and {value!r}, both reported as {name!r}")
            seen[name] = value
    cfg.mcmc_config()


def _resolve_config(args: argparse.Namespace) -> tuple[RunConfig, list[CvCondition]]:
    """The config file's settings with the flags laid over them, checked,
    and the LLM conditions the command will elicit."""
    cfg = load_config(args.config) if args.config else RunConfig()
    flags = {}
    for key in _FIELD_TYPES:
        given = getattr(args, key, None)  # set by _Setting
        if given is not None:
            flag, raw = given
            flags[key] = _coerce_config_value(key, raw, flag)
    cfg = replace(cfg, **flags)
    if args.command == "efficiency":
        cfg = replace(cfg, n_queries=1)  # each efficiency cell sends one query
    conditions = _llm_conditions(cfg, args.command)
    _check_config(cfg)
    return cfg, conditions


def _make_transport(cfg: RunConfig):
    from .elicitation import FixtureTransport, HttpTransport
    if cfg.fixtures and cfg.live:
        raise ConfigError("a fixtures path (--fixtures) and --live exclude each other")
    if cfg.fixtures:
        try:
            return FixtureTransport.from_path(cfg.fixtures)
        except OSError as exc:
            raise ConfigError(f"cannot read fixtures: {exc}") from exc
    if cfg.live:
        endpoint = os.environ.get(ENDPOINT_ENV_VAR, cfg.endpoint)
        api_key = os.environ.get(API_KEY_ENV_VAR)
        if not api_key:
            raise ConfigError(
                f"live mode requires the {API_KEY_ENV_VAR} environment variable")
        if not endpoint:
            raise ConfigError("live mode requires an endpoint URL")
        try:
            import requests  # noqa: F401  (the live transport's one dependency)
        except ImportError:
            raise ConfigError("live mode requires the requests package, from the "
                              "'live' extra: pip install 'aebayes[live]'") from None
        try:
            return HttpTransport(endpoint, api_key=api_key, timeout=cfg.timeout)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError("either a fixtures path (--fixtures) or --live is required")


def _out_dir(cfg: RunConfig, kind: str) -> Path:
    path = Path(cfg.out or "out") / kind
    path.mkdir(parents=True, exist_ok=True)
    return path


def _check_out_dirs(cfg: RunConfig, *kinds: str) -> None:
    """Check that each output directory a command writes exists or can be
    made, before it loads data or sends a query; nothing is created until
    a file is written, so a run that fails on its input leaves no output."""
    root = Path(cfg.out or "out")
    for path in (root, *(root / kind for kind in kinds)):
        existing = next(p for p in (path, *path.parents) if os.path.lexists(p))
        if not existing.is_dir():
            reason = f"{existing} is not a directory"
        elif not os.access(existing, os.W_OK | os.X_OK):
            reason = f"{existing} is not writable"
        else:
            continue
        raise ConfigError(f"cannot create output directory {path}: {reason}")


@contextlib.contextmanager
def _writing(path: Path):
    """Turn an OSError of the block that writes ``path`` (say, a directory
    holds its name) into a ConfigError naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _replacing(path: Path):
    """Yield a temporary path beside ``path``; the file written there
    replaces ``path`` on success and is removed on any failure or interrupt,
    so ``path`` keeps its previous bytes and no partial file remains."""
    tmp = path.with_name(path.name + ".tmp")
    with _writing(path):
        try:
            yield tmp
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def _write_atomic(path: Path, text: str) -> None:
    with _replacing(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


def _write_csv(path: Path, rows: list[dict]) -> None:
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    _write_atomic(path, buf.getvalue())


def _format_cell(value, spec: str) -> str:
    """``value`` in the fixed-point ``spec``, or in its ``e`` form at a
    magnitude of 1e15 or more, where fixed point shows more digits than a
    float holds."""
    v = float(value)
    return format(v, spec[:-1] + "e" if abs(v) >= 1e15 else spec)


def _format_table(columns: list[tuple[str, str, str]], rows: list[dict]) -> str:
    """A text table of ``rows``, one column per (header, row key, format
    spec).  A cell with a spec holds a float or its repr, which
    ``float`` reads back exactly, so a results row and the text report
    show one number."""
    headers = [header for header, _, _ in columns]
    cells = [[_format_cell(row[key], spec) if spec else str(row[key])
              for _, key, spec in columns] for row in rows]
    widths = [max(map(len, column)) for column in zip(headers, *cells)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths]), *map(fmt, cells)]
    return "\n".join(lines) + "\n"


def _require_dataset(cfg: RunConfig):
    if not cfg.dataset:
        raise ConfigError("a dataset path is required (--dataset or config)")
    return load_dataset(cfg.dataset)


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg, _ = _resolve_config(args)
    if cfg.out is not None:
        _check_out_dirs(cfg, "reports")
    dataset = _require_dataset(cfg)
    s = summarize(dataset)
    lines = [
        f"{s.n_patients} patients, {s.n_sites} sites",
        f"site size: mean {s.mean_site_size:.2f}, range {s.min_site_size}-{s.max_site_size}",
        f"event counts: range {s.min_count}-{s.max_count}",
    ]
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if cfg.out is not None:
        _write_atomic(_out_dir(cfg, "reports") / "ingest.txt", report)
    return EXIT_OK


@contextlib.contextmanager
def _experiment_audit(cfg: RunConfig, command: str):
    """Yield the list that collects an experiment's elicitation records, and
    on every exit path replace audit/<command>_elicitations.jsonl with it,
    so the file holds the last run only; a run that elicited nothing leaves
    no file.  A run that fails or is interrupted also removes the command's
    own results/ and reports/ files, so they never sit beside another run's
    audit log."""
    from .elicitation import write_audit_log
    root = Path(cfg.out or "out")
    audit = []
    try:
        yield audit
    except BaseException:
        for kind in ("results", "reports"):
            for path in root.glob(f"{kind}/{command}_*"):
                path.unlink()
        raise
    finally:
        path = root / "audit" / f"{command}_elicitations.jsonl"
        if audit:
            with _replacing(_out_dir(cfg, "audit") / path.name) as tmp:
                tmp.unlink(missing_ok=True)  # write_audit_log appends
                write_audit_log(audit, tmp)
        else:
            path.unlink(missing_ok=True)


def cmd_elicit(args: argparse.Namespace) -> int:
    cfg, [condition] = _resolve_config(args)
    _check_out_dirs(cfg, "audit")
    transport = _make_transport(cfg)
    from .elicitation import elicit_prior, write_audit_log
    # each run makes new queries, so the log grows across runs, failed ones too
    audit = []
    try:
        prior = elicit_prior(condition.strategy, condition.elicit, transport, audit)
    finally:
        path = _out_dir(cfg, "audit") / "elicitations.jsonl"
        with _writing(path):
            write_audit_log(audit, path)
    n_ok = prior.n_successes
    sys.stdout.write(
        f"model {condition.elicit.model_id}, strategy {condition.strategy.value}, "
        f"temperature {condition.elicit.temperature:g}\n"
        f"queries: {len(prior.records)} ({n_ok} parsed)\n"
        f"alpha_rate = {prior.spec.alpha_rate!r}\n"
        f"beta_rate = {prior.spec.beta_rate!r}\n"
    )
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    cfg, _ = _resolve_config(args)
    _check_out_dirs(cfg, "draws", "reports")
    dataset = _require_dataset(cfg)
    try:
        spec = HyperPriorSpec(alpha_rate=args.alpha_rate, beta_rate=args.beta_rate)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    freeze = tuple(args.freeze) if args.freeze else None
    mcmc = cfg.mcmc_config(freeze_hyperparams=freeze, no_data=args.no_data)
    from .sampler import RHAT_THRESHOLD, export_draws, run_mcmc
    draws = run_mcmc(dataset, spec, mcmc)

    draws_path = _out_dir(cfg, "draws") / "draws.csv"
    with _replacing(draws_path) as tmp:
        export_draws(draws, tmp, include_hyperparams=freeze is None)

    rows = [{"parameter": name, "rhat": value}
            for name, value in sorted(draws.diagnostics.items())]
    report = _format_table([("parameter", "parameter", ""), ("rhat", "rhat", ".4f")], rows)
    flagged = draws.rhat_flags()
    if not draws.diagnostics:  # every dataset has a site, so the chains were too short
        report += ("\nwarning: rhat not computed: split R-hat needs 2 or more chains "
                   f"of 4 or more draws, and this fit ran {mcmc.n_chains} chain(s) of "
                   f"{mcmc.n_draws} draw(s)\n")
    if flagged:
        names = ", ".join(sorted(flagged))
        report += f"\nwarning: rhat >= {RHAT_THRESHOLD:g} for: {names}\n"
    _write_atomic(_out_dir(cfg, "reports") / "fit_diagnostics.txt", report)
    sys.stdout.write(report)
    sys.stdout.write(f"\ndraws written to {draws_path}\n")
    return EXIT_OK


def cmd_cv(args: argparse.Namespace) -> int:
    cfg, llm_conditions = _resolve_config(args)
    if args.no_baseline and not llm_conditions:
        raise ConfigError("no condition to run: --no-baseline and no LLM condition "
                          "(models, strategies or temperatures is empty)")
    _check_out_dirs(cfg, "results", "reports", "audit")
    dataset = _require_dataset(cfg)
    from .elicitation import CvCondition
    baseline = [] if args.no_baseline else [CvCondition.meta_analytical()]
    transport = _make_transport(cfg) if llm_conditions else None
    from .crossval import (cv_summary_rows, cv_table_rows, make_folds, run_cv_experiment,
                           stratify_sites)
    try:  # every fold needs a test site
        make_folds(stratify_sites(dataset), k=cfg.k, seed=cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    with _experiment_audit(cfg, "cv") as audit:
        results = run_cv_experiment(dataset, [*baseline, *llm_conditions], transport,
                                    k=cfg.k, seed=cfg.seed, audit=audit)

    summary = cv_summary_rows(results)
    _write_csv(_out_dir(cfg, "results") / "cv_folds.csv", cv_table_rows(results))
    _write_csv(_out_dir(cfg, "results") / "cv_summary.csv", summary)
    report = _format_table(
        [("condition", "condition", ""), ("lpd_mean", "pooled_lpd_mean", ".3f"),
         ("lpd_sd", "pooled_lpd_sd", ".3f"), ("fold_mean", "fold_lpd_mean", ".3f"),
         ("fold_sd", "fold_lpd_sd", ".3f")], summary)
    _write_atomic(_out_dir(cfg, "reports") / "cv_report.txt", report)
    sys.stdout.write(report)
    return EXIT_OK


def cmd_efficiency(args: argparse.Namespace) -> int:
    cfg, [condition] = _resolve_config(args)
    _check_out_dirs(cfg, "results", "reports", "audit")
    dataset = _require_dataset(cfg)
    from .elicitation import CvCondition
    baseline = [] if args.no_baseline else [CvCondition.meta_analytical()]
    transport = _make_transport(cfg)
    from .crossval import stratify_sites
    from .efficiency import (efficiency_summary_rows, efficiency_table_rows,
                             require_test_sites, run_efficiency_experiment)
    require_test_sites(stratify_sites(dataset))  # before a failed run clears out/

    with _experiment_audit(cfg, "efficiency") as audit:
        result = run_efficiency_experiment(
            dataset, [*baseline, condition], transport, rho_grid=cfg.rho_grid,
            n_replications=cfg.n_replications, seed=cfg.seed, audit=audit)

    summary = efficiency_summary_rows(result)
    _write_csv(_out_dir(cfg, "results") / "efficiency_runs.csv",
               efficiency_table_rows(result))
    _write_csv(_out_dir(cfg, "results") / "efficiency_summary.csv", summary)
    report = _format_table(
        [("condition", "condition", ""), ("rho", "rho", ""),
         ("lpd_mean", "lpd_mean", ".3f"), ("lpd_sd", "lpd_sd", ".3f"),
         ("train_patients", "train_patients_mean", ".1f")], summary)
    report += f"\ntest set: {result.n_test_patients} patients, {result.n_test_sites} sites\n"
    _write_atomic(_out_dir(cfg, "reports") / "efficiency_report.txt", report)
    sys.stdout.write(report)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    cfg, _ = _resolve_config(args)
    _check_out_dirs(cfg, "reports", "results")
    audit_dir = Path(cfg.out or "out") / "audit"
    if not audit_dir.is_dir():
        raise DataError(f"no such audit directory: {audit_dir}")
    from .elicitation import prior_param_rows, read_audit_log
    records = []
    for path in sorted(audit_dir.glob("*.jsonl")):
        try:
            records += read_audit_log(path)
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if not records:
        raise DataError(f"no elicitation records found under {audit_dir}")
    try:
        rows = prior_param_rows(records)
    except ValueError as exc:  # a group whose every query failed
        raise ElicitationError(f"{audit_dir}: {exc}") from exc
    report = _format_table(
        [("model", "model", ""), ("strategy", "strategy", ""), ("T", "temperature", ""),
         ("parameter", "parameter", ""), ("n", "n", ""),
         *((name, name, ".3f") for name in ("mean", "sd", "min", "q1", "median", "q3",
                                            "max"))], rows)
    _write_atomic(_out_dir(cfg, "reports") / "prior_param_stats.txt", report)
    _write_csv(_out_dir(cfg, "results") / "prior_param_stats.csv", rows)
    sys.stdout.write(report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aebayes",
        description="Hierarchical Bayesian adverse-event modeling with "
                    "LLM-elicited hyperpriors.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # every flag that sets a RunConfig key has the key as its dest and keeps
    # the raw text (action=_Setting) for _resolve_config
    def common(p: argparse.ArgumentParser, dataset: bool = False):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", action=_Setting, help="global seed")
        p.add_argument("--out", action=_Setting, help="output directory")
        p.add_argument("--fixtures", action=_Setting,
                       help="JSONL fixture file of recorded responses")
        p.add_argument("--live", action="store_const", const=("--live", "true"),
                       help="query the live endpoint (requires LLM_API_KEY)")
        p.add_argument("--n-jobs", action=_Setting,
                       help="accepted and checked, but has no effect: every cell "
                            "of an experiment is scored in one process")
        if dataset:
            p.add_argument("--dataset", action=_Setting, help="patient-level CSV file")

    def one_condition(p: argparse.ArgumentParser):
        p.add_argument("--model", dest="models", metavar="MODEL", action=_Setting,
                       help="model id (sets models to one id)")
        p.add_argument("--strategy", dest="strategies", action=_Setting,
                       choices=[s.value for s in PromptStrategy],
                       help="prompt strategy (sets strategies to one strategy)")
        p.add_argument("--temperature", dest="temperatures", metavar="T",
                       action=_Setting, help="sets temperatures to one value")

    p = sub.add_parser("ingest", help="validate a dataset and print its summary")
    common(p)
    p.add_argument("dataset", metavar="path", action=_Setting,
                   help="patient-level CSV file")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("elicit", help="run one elicitation batch")
    common(p)
    one_condition(p)
    p.add_argument("--n-queries", action=_Setting)
    p.set_defaults(func=cmd_elicit)

    p = sub.add_parser("fit", help="fit the model once and dump draws")
    common(p, dataset=True)
    p.add_argument("--alpha-rate", type=float, default=META_ANALYTICAL.alpha_rate)
    p.add_argument("--beta-rate", type=float, default=META_ANALYTICAL.beta_rate)
    p.add_argument("--freeze", nargs=2, type=float, metavar=("ALPHA", "BETA"),
                   default=None, help="hold (alpha, beta) fixed; sample rates only")
    p.add_argument("--no-data", action="store_true",
                   help="suppress the likelihood and sample the prior")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cv", help="stratified k-fold cross-validation experiment")
    common(p, dataset=True)
    p.add_argument("--k", action=_Setting)
    p.add_argument("--models", action=_Setting, help="comma-separated model ids")
    p.add_argument("--strategies", action=_Setting, help="comma-separated strategies")
    p.add_argument("--temperatures", action=_Setting, help="comma-separated temperatures")
    p.add_argument("--no-baseline", action="store_true",
                   help="skip the meta-analytical baseline condition")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("efficiency", help="train-fraction subsampling experiment")
    common(p, dataset=True)
    one_condition(p)
    p.add_argument("--rho-grid", action=_Setting,
                   help="comma-separated subsampling fractions")
    p.add_argument("--n-replications", action=_Setting)
    p.add_argument("--no-baseline", action="store_true")
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("report", help="prior-parameter statistics from <out>/audit")
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    # numpy's only BLAS calls here are small products, which an idle second
    # OpenBLAS thread only slows; a value set in the environment still wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():  # one line each, without the source
            warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                             file=sys.stderr)
            return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ElicitationError as exc:
        print(f"elicitation error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

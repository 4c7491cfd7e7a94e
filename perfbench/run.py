"""End-to-end and per-layer benchmark of the aebayes CLI.

Run from the root of a source checkout (the package is imported from
``src``; nothing needs to be installed):

    python3 perfbench/run.py --workload cv-trial --seed 0 --seconds 20 --trace 0

Workloads (inputs come from ``gen.py`` and the seed; see BENCHMARK.json):

* ``cv-trial``: ``aebayes cv --n-jobs 2`` on the 125-site trial-shaped set
  with the baseline and the 12 fixture-replayed LLM conditions, k = 5
  (65 fit-and-score cells).  The paper's headline experiment and the only
  workload that runs the process pool and ~300 replayed queries.
* ``efficiency-wide``: ``aebayes efficiency --n-jobs 1 --n-replications 2``
  on the 1250-site set (12 cells).  The fixed ~1400-patient test set makes
  LPD a large share of each cell; sequential, so the pool is bypassed.
* ``fit-zero-heavy``: ``aebayes fit`` on a trial-sized set where most sites
  report no events.  The only workload that exports draws, and one where
  alpha is weakly identified, so sampler quality shows in ESS and R-hat.

The first two run chains of 250 warmup + 250 draws (a config file sets
them), so a run repeats their command several times; ``fit`` keeps the
default 1000 + 1000.

``--trace 0`` repeats the workload's CLI command until ``--seconds`` have
passed, checks every output, and reports medians of the end-to-end
metrics, with the number of repeats and the tail of their wall times.
``setup_s`` is the median over one cold ``aebayes ingest`` of the
workload's dataset timed before each repeat.

``--trace 1`` runs the command untraced before and after replaying the
same calls through the library's public functions inside spans (see
``replay.py`` and ``spans.py``) and reports per-layer metrics.
The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy
import scipy

import gen
from gen import DEFAULT_CHAINS, EFF_REPLICATIONS, K_FOLDS, N_CHAINS, RHO_GRID, SHORT_CHAINS
from diagnostics import ess_bulk, read_hyper_draws, rhat_report
from spans import SpanRecorder, span_cost_s

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS_OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

RHAT_THRESHOLD = 1.1  # the CLI's default


class Workload(NamedTuple):
    dataset: str
    n_jobs: int
    cells: int                # fit-and-score cells per command
    chains: tuple[int, int]   # (warmup, draws) per chain


WORKLOADS = {
    "cv-trial": Workload("trial.csv", 2, 13 * K_FOLDS, SHORT_CHAINS),
    "efficiency-wide": Workload("wide.csv", 1, EFF_REPLICATIONS * (1 + len(RHO_GRID)),
                                SHORT_CHAINS),
    "fit-zero-heavy": Workload("zero_heavy.csv", 1, 1, DEFAULT_CHAINS),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; it exits non-zero without a result."""


# ---------------------------------------------------------------- commands

def command(workload: str, inputs: dict[str, Path], seed: int, out: Path) -> list[str]:
    wl = WORKLOADS[workload]
    base = [sys.executable, "-m", "aebayes.cli"]
    common = ["--dataset", str(inputs[wl.dataset]), "--seed", str(seed), "--out", str(out)]
    if wl.chains != DEFAULT_CHAINS:
        common += ["--config", str(inputs["short_chains.cfg"])]
    if workload == "cv-trial":
        return base + ["cv", *common, "--fixtures", str(inputs[gen.FIXTURES]),
                       "--n-jobs", "2"]
    if workload == "efficiency-wide":
        return base + ["efficiency", *common, "--fixtures", str(inputs[gen.FIXTURES]),
                       "--n-jobs", "1", "--n-replications", str(EFF_REPLICATIONS)]
    return base + ["fit", *common]


def run_cli(argv: list[str], out: Path) -> dict:
    """Run one CLI process to completion; wall time, CPU and peak RSS of
    it and every worker it waited for."""
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def time_ingest(dataset: Path, out: Path) -> float:
    """Time from a fresh interpreter to ``aebayes ingest`` returning."""
    run = run_cli([sys.executable, "-m", "aebayes.cli", "ingest", str(dataset)], out)
    if run["code"] != 0:
        raise BenchError(f"ingest failed: {(out / 'stderr.txt').read_text()}")
    return run["wall_s"]


# ---------------------------------------------------------------- checks

def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def outputs_digest(out: Path) -> str:
    """sha256 over the paths and bytes of results/, reports/ and draws/
    (audit/ holds timestamps and is left out)."""
    h = hashlib.sha256()
    for kind in ("results", "reports", "draws"):
        for path in sorted((out / kind).rglob("*")) if (out / kind).is_dir() else ():
            if path.is_file():
                h.update(str(path.relative_to(out)).encode() + b"\0")
                h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def pooled_lpds(workload: str, out: Path) -> dict[str, float]:
    """The pooled LPD per condition (cv) or per (condition, rho) cell."""
    if workload == "cv-trial":
        return {r["condition"]: float(r["pooled_lpd_mean"])
                for r in _csv_rows(out / "results" / "cv_summary.csv")}
    if workload == "efficiency-wide":
        return {f"{r['condition']}|rho={r['rho']}": float(r["lpd_mean"])
                for r in _csv_rows(out / "results" / "efficiency_summary.csv")}
    return {}


def check_outputs(workload: str, out: Path, reference: dict) -> list[str]:
    """Problems with one command's outputs; an empty list means correct."""
    try:
        return _check_outputs(workload, out, reference)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable outputs: {type(exc).__name__}: {exc}"]


def _check_outputs(workload: str, out: Path, reference: dict) -> list[str]:
    problems: list[str] = []
    lpd_values: list[float] = []
    if workload == "cv-trial":
        folds = _csv_rows(out / "results" / "cv_folds.csv")
        summary = _csv_rows(out / "results" / "cv_summary.csv")
        expected = {"cv_folds.csv": (len(folds), 13 * K_FOLDS),
                    "cv_summary.csv": (len(summary), 13)}
        lpd_values += [float(r[k]) for r in folds for k in ("lpd_mean", "lpd_sd")]
        lpd_values += [float(r[k]) for r in summary
                       for k in ("pooled_lpd_mean", "pooled_lpd_sd", "fold_lpd_mean")]
    elif workload == "efficiency-wide":
        runs = _csv_rows(out / "results" / "efficiency_runs.csv")
        summary = _csv_rows(out / "results" / "efficiency_summary.csv")
        expected = {"efficiency_runs.csv": (len(runs), WORKLOADS[workload].cells),
                    "efficiency_summary.csv": (len(summary), 1 + len(RHO_GRID))}
        lpd_values += [float(r["lpd_mean"]) for r in runs]
        lpd_values += [float(r[k]) for r in summary for k in ("lpd_mean", "lpd_sd")]
    else:
        text = (out / "reports" / "fit_diagnostics.txt").read_text(encoding="utf-8")
        _, n_params = rhat_report(text, RHAT_THRESHOLD)
        with open(out / "draws" / "draws.csv", "rb") as fh:
            n_rows = sum(1 for _ in fh) - 1
        expected = {"fit_diagnostics.txt parameters": (n_params, len(gen.site_sizes()) + 2),
                    "draws.csv rows": (n_rows, N_CHAINS * WORKLOADS[workload].chains[1]
                                       * (len(gen.site_sizes()) + 2))}
    for what, (got, want) in expected.items():
        if got != want:
            problems.append(f"{what}: {got} rows, expected {want}")
    if not all(math.isfinite(v) for v in lpd_values):
        problems.append("non-finite LPD in results")
    for key, value in pooled_lpds(workload, out).items():
        ref = reference.get("lpd", {}).get(workload, {}).get(key)
        if ref is None:
            problems.append(f"no reference pooled LPD for {key!r}")
        elif abs(value - ref["mean"]) > ref["tol"]:
            problems.append(f"pooled LPD for {key!r} is {value:.4f}, "
                            f"reference {ref['mean']:.4f} +/- {ref['tol']:.4f}")
    return problems


def fit_quality(out: Path, wall_s: float) -> dict[str, float]:
    """ESS and R-hat figures of a ``fit`` command's outputs."""
    alpha, beta = read_hyper_draws(out / "draws" / "draws.csv")
    ess = min(ess_bulk(alpha), ess_bulk(beta))
    text = (out / "reports" / "fit_diagnostics.txt").read_text(encoding="utf-8")
    flagged, _ = rhat_report(text, RHAT_THRESHOLD)
    return {"ess_min_per_s": ess / wall_s, "unconverged_params": flagged}


# ---------------------------------------------------------------- environment

def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def prepare(seed: int) -> tuple[Path, dict[str, Path]]:
    if not (SRC / "aebayes" / "cli.py").is_file():
        raise BenchError(f"no aebayes sources under {SRC}; run from the repository root")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
    inputs = gen.generate(seed, work / "inputs")
    inputs["short_chains.cfg"] = work / "inputs" / "short_chains.cfg"
    warmup, draws = SHORT_CHAINS
    inputs["short_chains.cfg"].write_text(f"n_warmup = {warmup}\nn_draws = {draws}\n",
                                          encoding="utf-8")
    return work, inputs


# ---------------------------------------------------------------- trace 0

def _tail(values: list[float]) -> tuple[float, float]:
    """(percent, value) of the highest percentile with at least ten values
    beyond it; the maximum when there are fewer than twenty values."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    return float(pct), ordered[min(n - 1, math.ceil(pct / 100.0 * n) - 1)]


def run_untraced(workload: str, seed: int, seconds: float, work: Path,
                 inputs: dict[str, Path]) -> dict:
    wl = WORKLOADS[workload]
    reference = load_reference()
    time_ingest(inputs[wl.dataset], work / "ingest")  # untimed: writes the bytecode caches
    runs, setups, failed, digests, quality = [], [], 0, set(), []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        # one set-up per repeat, so set-up is timed across the whole run as
        # the command is, not in one burst that a busy moment can cover
        setups.append(time_ingest(inputs[wl.dataset], work / "ingest"))
        out = Path(tempfile.mkdtemp(dir=work, prefix="rep-"))  # fresh: audit logs append
        run = run_cli(command(workload, inputs, seed, out), out)
        runs.append(run)
        problems = [f"exit code {run['code']}"] if run["code"] != 0 else []
        if not problems:
            problems = check_outputs(workload, out, reference)
        if not problems:
            digests.add(outputs_digest(out))
            if workload == "fit-zero-heavy":
                quality.append(fit_quality(out, run["wall_s"]))
        if problems:
            failed += 1
            print(f"run {len(runs)} failed: {'; '.join(problems)}", file=sys.stderr)
        shutil.rmtree(out)  # the fit's draws file is ~20 MB
    if len(digests) > 1:
        print("outputs differ between identical runs", file=sys.stderr)
        failed = len(runs)

    walls = [r["wall_s"] for r in runs]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cells_per_s": (statistics.median(wl.cells / w for w in walls), "1/s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    ref_digest = reference.get("digests", {}).get(workload, {}).get(str(seed))
    digest = next(iter(digests)) if len(digests) == 1 else None
    tail_pct, tail = _tail(walls)
    info = {
        "repeats": len(runs),
        f"wall_s_p{tail_pct:g}": tail,
        "wall_s_per_run": [round(w, 4) for w in walls],
        "failed_frac": failed / len(runs),
        "outputs_sha256": digest,
        "outputs_identical": None if ref_digest is None else digest == ref_digest,
    }
    if quality:
        info["ess_min_per_s"] = statistics.median(q["ess_min_per_s"] for q in quality)
        info["unconverged_params"] = quality[0]["unconverged_params"]
    return {"attempted": len(runs), "failed": failed, "metrics": metrics, "info": info}


# ---------------------------------------------------------------- trace 1

def run_traced(workload: str, seed: int, seconds: float, work: Path,
               inputs: dict[str, Path]) -> dict:
    wl = WORKLOADS[workload]
    reference = load_reference()
    clis, problems = [], []

    def untraced():
        out = work / "cli"
        clis.append(run_cli(command(workload, inputs, seed, out), out))
        code = clis[-1]["code"]
        problems.extend([f"exit code {code}"] if code else check_outputs(workload, out, reference))
        shutil.rmtree(out)

    from replay import Replay

    untraced()
    rec = SpanRecorder(workload)
    replays, probes = [], []
    start = time.perf_counter()
    while not replays or time.perf_counter() - start < seconds:
        replay = Replay(rec, inputs, seed, work, wl.chains)
        t0 = time.perf_counter()
        replay.run(workload)
        probes.append(replay.lambda_probe())
        replays.append((replay, time.perf_counter() - t0))
    untraced()
    # the untraced command runs before and after the replays, so a drift in
    # machine speed shifts both sides of cli.remainder_s alike
    cli = {k: statistics.fmean(c[k] for c in clis) for k in ("wall_s", "cpu_s")}
    n = len(replays)
    wall = sum(t for _, t in replays) / n
    if problems:
        print(f"untraced command failed: {'; '.join(problems)}", file=sys.stderr)

    self_all = rec.self_time_by_name()
    self_cmd = rec.self_time_by_name(include_probes=False)
    cells = [c for r, _ in replays for c in r.cells]
    queries = sum(r.queries for r, _ in replays)
    failed_q = sum(r.failed_queries for r, _ in replays)
    lpd_s = self_all.get("evaluation.lpd", 0.0)
    fit_total = sum(c["fit_s"] for c in cells)
    tail_pct, tail = _tail([c["fit_s"] for c in cells])
    full_us = statistics.median(p[0] for p in probes)
    lambda_us = statistics.median(p[1] for p in probes)
    export_s = self_all.get("sampler.export", 0.0)
    per_span = span_cost_s()

    def per_replay(name):
        return self_all.get(name, 0.0) / n

    metrics = {
        "data.load_s": (per_replay("data.load"), "s"),
        "crossval.plan_s": (per_replay("crossval.plan"), "s"),
        "efficiency.plan_s": (per_replay("efficiency.plan"), "s"),
        "elicitation.elicit_s": (per_replay("elicitation.elicit"), "s"),
        "elicitation.queries": (queries / n, "count"),
        "elicitation.failed_frac": (failed_q / queries, "ratio"),
        "sampler.fit_s_p50": (statistics.median(c["fit_s"] for c in cells), "s"),
        "sampler.fit_s_tail": (tail, "s"),
        "sampler.fit_s_tail_pct": (tail_pct, "%"),
        "sampler.fit_cells": (len(cells), "count"),
        "sampler.iter_us": ((fit_total - sum(c["rhat_s"] for c in cells))
                            / (len(cells) * replays[0][0].iterations) * 1e6, "us"),
        "sampler.lambda_iter_us": (lambda_us, "us"),
        "sampler.hyper_iter_us": (full_us - lambda_us, "us"),
        "sampler.rhat_s": (per_replay("sampler.rhat"), "s"),
        "sampler.export_s": (export_s / n, "s"),
        "sampler.export_mb_per_s": (sum(r.export_bytes for r, _ in replays) / 1e6 / export_s,
                                    "MB/s"),
        "sampler.ess_per_draw": (statistics.median(c["ess_min"] for c in cells)
                                 / (N_CHAINS * wl.chains[1]), "ratio"),
        "sampler.ess_min_per_s": (statistics.median(c["ess_min"] / c["fit_s"] for c in cells),
                                  "1/s"),
        "sampler.flagged_frac": (sum(c["flagged"] for c in cells)
                                 / sum(c["n_params"] for c in cells), "ratio"),
        "sampler.unconverged_params": (sum(c["flagged"] for c in cells) / n, "count"),
        "evaluation.lpd_s": (lpd_s / n, "s"),
        "evaluation.patients_per_s": (sum(r.lpd_patients for r, _ in replays) / lpd_s, "1/s"),
        "evaluation.cell_share": (lpd_s / (lpd_s + fit_total), "ratio"),
        "pipeline.utilisation": (cli["cpu_s"] / (wl.n_jobs * cli["wall_s"]), "ratio"),
        "cli.remainder_s": (cli["cpu_s"] - sum(self_cmd.values()) / n, "s"),
        "trace.overhead_s": (per_span * len(rec.spans) / n, "s"),
    }
    SPANS_OUT.mkdir(exist_ok=True)
    spans_path = SPANS_OUT / f"spans-{workload}-seed{seed}.json"
    rec.dump(spans_path, seed=seed, replays=n, replay_wall_s=wall,
             untraced=clis, self_time_s={k: v / n for k, v in self_all.items()},
             environment=environment())
    info = {"spans": str(spans_path.relative_to(ROOT)), "replays": n,
            "replay_wall_s": wall, "untraced_wall_s": cli["wall_s"],
            "untraced_cpu_s": cli["cpu_s"],
            "tracing_overhead_frac": per_span * len(rec.spans) / n / wall}
    return {"attempted": len(clis) + n, "failed": int(bool(problems)), "metrics": metrics,
            "info": info}


# ---------------------------------------------------------------- main

def main() -> int:
    parser = argparse.ArgumentParser(description="aebayes CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))  # the traced run imports aebayes from the checkout
    try:
        work, inputs = prepare(args.seed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        run = (run_traced if args.trace else run_untraced)(
            args.workload, args.seed, args.seconds, work, inputs)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # unless another run is using it
        except OSError:
            pass

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    for name, (value, unit) in run["metrics"].items():
        print(f"{name:28s} {value:14.6g} {unit}")
    for name, value in run["info"].items():
        print(f"{name}: {json.dumps(value)}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

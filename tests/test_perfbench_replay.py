"""The traced benchmark (``perfbench/run.py --trace 1``) replays each
workload through the library's public names in ``perfbench/replay.py``.
Running that replay here with short chains makes a renamed library name or
attribute fail in the tests, not only in a traced benchmark run."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))  # the benchmark's modules are scripts, not a package

import gen  # noqa: E402
import run  # noqa: E402
from replay import Replay  # noqa: E402
from spans import SpanRecorder  # noqa: E402

from aebayes import cli  # noqa: E402

WORKLOADS = [w["name"] for w in
             json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]
# every layer the per-layer metrics read; probes time the ones a workload's
# command does not call
LAYERS = {"data.load", "crossval.plan", "efficiency.plan", "elicitation.elicit",
          "sampler.fit", "sampler.rhat", "sampler.fit_frozen", "sampler.export",
          "evaluation.lpd"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return gen.generate(0, tmp_path_factory.mktemp("inputs"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_replay_runs_every_layer(inputs, tmp_path, workload):
    rec = SpanRecorder(workload)
    replay = Replay(rec, inputs, 0, tmp_path, (20, 20))
    replay.run(workload)
    assert all(math.isfinite(us) for us in replay.lambda_probe())
    assert {s["name"] for s in rec.spans} >= LAYERS
    assert replay.cells and replay.queries and replay.lpd_patients and replay.export_bytes


def test_benchmark_commands_parse(tmp_path):
    """Every argv the benchmark runs parses and resolves, so dropping a flag
    it passes fails here and not only in a benchmark run."""
    inputs = gen.generate(0, tmp_path / "inputs")
    # the config file run.prepare writes, written here so nothing lands
    # under the current directory
    inputs["short_chains.cfg"] = tmp_path / "inputs" / "short_chains.cfg"
    warmup, draws = gen.SHORT_CHAINS
    inputs["short_chains.cfg"].write_text(f"n_warmup = {warmup}\nn_draws = {draws}\n",
                                          encoding="utf-8")
    ingest = [sys.executable, "-m", "aebayes.cli", "ingest", str(inputs["trial.csv"])]
    for argv in [*(run.command(w, inputs, 0, tmp_path / "out") for w in WORKLOADS), ingest]:
        assert argv[1:3] == ["-m", "aebayes.cli"]
        cli._resolve_config(cli.build_parser().parse_args(argv[3:]))

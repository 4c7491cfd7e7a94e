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
from replay import Replay  # noqa: E402
from spans import SpanRecorder  # noqa: E402

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

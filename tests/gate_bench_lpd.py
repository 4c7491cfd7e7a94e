"""LPD gate of the experiment cells' quadrature on the benchmark's datasets,
outside tier-1.

Splits the seed-0 datasets of ``perfbench/gen.py`` as ``aebayes cv`` and
``aebayes efficiency`` do at seed 0: every fold of the trial and zero-heavy
sets (k = 5) and the 70:30 split of the wide set.  Each split is scored
through ``Split.quadrature``, as the cells score it, under the
meta-analytical prior and the two corners of the fixture answers' range,
(0.05, 2) and (2, 0.05), and against the scipy quadrature oracle
``aebayes_testkit.exact_lpd``.  It prints one row per (set, prior): the
largest gap of a patient's LPD from the oracle's, the largest G a grid
settled at, the largest edge mass and the seconds taken.  Pytest does not
collect this file (its name does not start with ``test_``); run it from the
root of a checkout:

    PYTHONPATH=src python tests/gate_bench_lpd.py

It exits 1 if a gap exceeds 1e-9.  The oracle's grid box holds each test
count's predictive integrand as well as the posterior, however far the
count lies above the training rates.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

import gen  # noqa: E402
from aebayes import META_ANALYTICAL, load_dataset  # noqa: E402
from aebayes.crossval import make_folds, stratify_sites  # noqa: E402
from aebayes.efficiency import SplitSpec, train_test_split  # noqa: E402
from aebayes.evaluation import Split  # noqa: E402
from aebayes.model import HyperPriorSpec  # noqa: E402
from aebayes_testkit import exact_lpd  # noqa: E402

PRIORS = (META_ANALYTICAL, HyperPriorSpec(0.05, 2.0), HyperPriorSpec(2.0, 0.05))
TOLERANCE = 1e-9


def splits(name: str, dataset) -> list[Split]:
    """The splits the benchmark's commands score on this set at seed 0."""
    if name == "wide.csv":
        return [Split(train, test)
                for train, test in [train_test_split(dataset, SplitSpec(seed=0))]]
    folds = make_folds(stratify_sites(dataset), k=gen.K_FOLDS, seed=0)
    return [Split(dataset.subset_by_sites(folds.train_sites(fold)),
                  dataset.subset_by_sites(folds.test_sites(fold)))
            for fold in range(gen.K_FOLDS)]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        paths = gen.generate(0, Path(tmp))
        datasets = {name: load_dataset(paths[name])
                    for name in ("trial.csv", "zero_heavy.csv", "wide.csv")}
    print("| set | splits | prior | largest gap | largest G | largest edge mass | s |")
    print("|---|---|---|---|---|---|---|")
    failed = 0
    for name, dataset in datasets.items():
        cells = splits(name, dataset)
        for spec in PRIORS:
            start = time.perf_counter()
            gap, n_grid, edge = 0.0, 0, 0.0
            for split in cells:
                quad = split.quadrature(spec)
                ys, patient_y = np.unique(split.test.counts(), return_inverse=True)
                expected = exact_lpd(ys, split.train, spec)[patient_y]
                gap = max(gap, float(np.abs(np.array(quad.lpd.per_patient) - expected).max()))
                n_grid, edge = max(n_grid, quad.n_grid), max(edge, quad.edge_mass)
            bad = not gap <= TOLERANCE
            failed += bad
            print(f"| {name[:-4]} | {len(cells)} | ({spec.alpha_rate:g}, {spec.beta_rate:g}) "
                  f"| {gap:.2g} | {n_grid} | {edge:.2g} | {time.perf_counter() - start:.2f} |"
                  f"{' FAIL' if bad else ''}", flush=True)
    print(f"{failed} (set, prior) pair(s) break the gate")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

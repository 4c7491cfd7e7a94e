"""Byte gate of the draw export on full-size fits, outside tier-1.

Fits the seed-0 trial and zero-heavy datasets of ``perfbench/gen.py`` under
the CLI's default prior and chains (4 chains of 1000 warmup + 1000 kept
draws) at sampler seeds 0-2, and its wide dataset at sampler seed 0, each
through ``run_mcmc``, as ``aebayes fit`` runs it.  The wide set's 1,250
sites make 1,252 columns, so its export blocks hold 6 rows, not 64.  Each
fit is exported by ``export_draws`` and by the testkit's
``reference_export_draws`` (one ``csv.writer`` row per value, values by
``repr``), with and without the hyperparameters.  It prints one row per
export: its size, the sha256 of the fast writer's bytes and whether the two
files are equal.  Pytest does not collect this file (its name does not start
with ``test_``); run it from the root of a checkout:

    PYTHONPATH=src python tests/gate_export_bytes.py [--seeds 3]

It exits 1 if any pair of files differs.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

import gen  # noqa: E402
from aebayes import META_ANALYTICAL, McmcConfig, load_dataset, run_mcmc  # noqa: E402
from aebayes.sampler import export_draws  # noqa: E402
from aebayes_testkit import reference_export_draws  # noqa: E402

SETS = ("trial.csv", "zero_heavy.csv")
# its 5,008,000 values are slow to write the reference's way: seed 0 alone
WIDE = "wide.csv"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3, help="sampler seeds 0..N-1")
    args = parser.parse_args()
    print("| set | seed | hyperparameters | bytes | sha256 | equal |")
    print("|---|---|---|---|---|---|")
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = gen.generate(0, tmp)
        fast, ref = tmp / "fast.csv", tmp / "reference.csv"
        for name in SETS + (WIDE,):
            dataset = load_dataset(paths[name])
            for seed in range(1 if name == WIDE else args.seeds):
                draws = run_mcmc(dataset, META_ANALYTICAL, McmcConfig(seed=seed))
                for hyper in (True, False):
                    export_draws(draws, fast, include_hyperparams=hyper)
                    reference_export_draws(draws, ref, include_hyperparams=hyper)
                    data = fast.read_bytes()
                    equal = data == ref.read_bytes()
                    failed += not equal
                    print(f"| {name[:-4]} | {seed} | {'with' if hyper else 'without'} | "
                          f"{len(data)} | {hashlib.sha256(data).hexdigest()[:16]} | "
                          f"{'yes' if equal else 'NO FAIL'} |", flush=True)
    print(f"{failed} export(s) break the gate")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

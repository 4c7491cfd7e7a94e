"""Moment gate of the sampler on the benchmark's datasets, outside tier-1.

Fits the three seed-0 datasets of ``perfbench/gen.py`` (trial, zero-heavy,
wide) under the meta-analytical prior at sampler seeds 0-4, with 4 chains
of 1000 warmup + 1000 kept draws and of 250 + 250, each through
``run_mcmc``, as ``aebayes fit`` runs it.  It prints one row per fit: the
z-scores of the mean and SD of alpha and beta against the quadrature
posterior, their bulk ESS and R-hat.  Pytest does not collect this file
(its name does not start with ``test_``); run it from the root of a
checkout:

    PYTHONPATH=src python tests/gate_bench_posteriors.py [--seeds 5]

It exits 1 if a fit breaks the gate: at 1000 + 1000, |z| < 3, a minimum
bulk ESS of alpha and beta of at least 300 and R-hat < 1.05; at 250 + 250,
R-hat < 1.1 on the trial and wide sets.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

import gen  # noqa: E402
from aebayes import META_ANALYTICAL, McmcConfig, load_dataset, run_mcmc  # noqa: E402
from aebayes_testkit import moment_z  # noqa: E402

SETS = ("trial.csv", "zero_heavy.csv", "wide.csv")
LENGTHS = ((1000, 1000), (250, 250))


def breaks(name: str, length: tuple[int, int], z: dict, rhat: dict) -> bool:
    if length == (1000, 1000):
        return (max(abs(v) for zm, zs, _ in z.values() for v in (zm, zs)) >= 3
                or min(ess for *_, ess in z.values()) < 300
                or max(rhat.values()) >= 1.05)
    return name != "zero_heavy.csv" and max(rhat.values()) >= 1.1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="sampler seeds 0..N-1")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        paths = gen.generate(0, Path(tmp))
        datasets = {name: load_dataset(paths[name]) for name in SETS}
    print("| set | chains | seed | z mean α | z SD α | z mean β | z SD β "
          "| ESS α | ESS β | R̂ α | R̂ β |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    failed = 0
    for length in LENGTHS:
        for name in SETS:
            for seed in range(args.seeds):
                cfg = McmcConfig(n_warmup=length[0], n_draws=length[1], seed=seed)
                draws = run_mcmc(datasets[name], META_ANALYTICAL, cfg)
                z = moment_z(draws, datasets[name], META_ANALYTICAL)
                rhat = {k: draws.diagnostics[k] for k in ("alpha", "beta")}
                bad = breaks(name, length, z, rhat)
                failed += bad
                (za, sa, ea), (zb, sb, eb) = z["alpha"], z["beta"]
                print(f"| {name[:-4]} | {length[0]}+{length[1]} | {seed} | {za:+.2f} | "
                      f"{sa:+.2f} | {zb:+.2f} | {sb:+.2f} | {ea:.0f} | {eb:.0f} | "
                      f"{rhat['alpha']:.3f} | {rhat['beta']:.3f} |"
                      f"{' FAIL' if bad else ''}", flush=True)
    print(f"{failed} fit(s) break the gate")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

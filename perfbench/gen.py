"""Seeded inputs for the benchmark: three datasets and one fixture file.

Every input is a pure function of the workload seed.  The *shape* of each
dataset (site count, the multiset of site sizes and of site rates) is
fixed, so the work a command does is the same at every seed; the seed
decides which site gets which size and rate, every event count, and the
fixture answers.

    python3 perfbench/gen.py --seed 3 --out DIR     # writes the four files
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

from scipy.stats import gamma

# 125 sites, 468 patients: the shape of the curated trial.  Every stratum
# (small <= 2, medium 3-4, large >= 5 patients) holds 40+ sites, enough
# for 5 folds and a 70:30 split.
TRIAL_SIZES = {1: 22, 2: 22, 3: 20, 4: 20, 5: 14, 6: 11, 7: 7, 8: 5, 9: 3, 10: 1}
WIDE_FACTOR = 10          # the wide set repeats the trial sizes 10 times
# Site rates ~ Gamma(shape, rate): 3.75 events per patient on the trial
# and wide sets.  On the zero-heavy set 90% of sites have rate 0 and the
# rest rates from Gamma(0.3, 1), so about 96% report no events; that leaves
# alpha weakly identified, and the sampler flags it (R-hat >= 1.1) at
# seeds 0-9.
TRIAL_RATES = (1.5, 0.4)
ZERO_SITE_SHARE = 0.9
ZERO_HEAVY_RATES = (0.3, 1.0)

# The workloads' commands run with the CLI's defaults apart from --n-jobs,
# --n-replications and chain length; these mirror the defaults they use.
MODELS = ("llama-3.3-70b-instruct", "medgemma-27b-it")
STRATEGIES = ("blind", "disease_informed")
TEMPERATURES = (0.1, 0.5, 1.0)
N_CHAINS = 4
DEFAULT_CHAINS = (1000, 1000)   # (warmup, draws) per chain
# cv-trial and efficiency-wide run chains a quarter of the default length,
# set through a config file, so one command takes seconds and a run repeats
# it several times; the per-iteration work does not depend on chain length.
SHORT_CHAINS = (250, 250)
K_FOLDS = 5
N_QUERIES = 5
RHO_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)
EFF_REPLICATIONS = 2
EFF_CONDITION = (MODELS[0], STRATEGIES[0], TEMPERATURES[-1])
# cv-trial asks each (model, strategy, temperature) key folds x queries times;
# efficiency-wide asks one key 5 rho x 2 replications x 1 query.
ANSWERS_PER_KEY = K_FOLDS * N_QUERIES

DATASETS = ("trial.csv", "wide.csv", "zero_heavy.csv")
FIXTURES = "fixtures.jsonl"


def site_sizes(factor: int = 1) -> list[int]:
    return [size for size, n in sorted(TRIAL_SIZES.items()) for _ in range(n * factor)]


def _dataset_rows(rng: random.Random, sizes: list[int], rates=TRIAL_RATES,
                  zero_share: float = 0.0):
    """Poisson counts for sites of the given sizes in a seeded order.

    Site rates are the Gamma(*rates) quantiles at evenly spaced levels,
    dealt to sites at random, so the rate distribution is the same at
    every seed and pooled LPDs vary only with the Poisson noise; the first
    ``zero_share`` of the shuffled sites get rate 0.
    """
    sizes = sizes[:]
    rng.shuffle(sizes)
    n_zero = round(zero_share * len(sizes))
    n_rated = len(sizes) - n_zero
    shape, rate = rates
    lams = [0.0] * n_zero + [float(gamma.ppf((i + 0.5) / n_rated, shape, scale=1 / rate))
                             for i in range(n_rated)]
    rng.shuffle(lams)
    rows = []
    pid = 0
    for j, (n, lam) in enumerate(zip(sizes, lams)):
        for _ in range(n):
            rows.append((f"site{j:04d}", f"pat{pid:05d}", _poisson(rng, lam)))
            pid += 1
    return rows


def _poisson(rng: random.Random, lam: float) -> int:
    # inversion by sequential search; rates here stay below ~30
    if lam <= 0.0:
        return 0
    u = rng.random()
    k, p = 0, math.exp(-lam)
    cum = p
    while u > cum and k < 1000:
        k += 1
        p *= lam / k
        cum += p
    return k


def _write_csv(path: Path, rows) -> None:
    lines = ["site_id,patient_id,ae_count"]
    lines += [f"{s},{p},{c}" for s, p, c in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fixture_lines(rng: random.Random) -> list[str]:
    """One distinct, plausible answer per query every workload makes."""
    seen: set[tuple[float, float]] = set()
    lines = []
    for model in MODELS:
        for strategy in STRATEGIES:
            for temp in TEMPERATURES:
                for _ in range(ANSWERS_PER_KEY):
                    while True:
                        pair = (round(rng.uniform(0.05, 2.0), 4),
                                round(rng.uniform(0.05, 2.0), 4))
                        if pair not in seen:
                            break
                    seen.add(pair)
                    body = json.dumps({"alpha_rate": pair[0], "beta_rate": pair[1]})
                    lines.append(json.dumps({"model": model, "strategy": strategy,
                                             "temperature": temp, "response": body}))
    return lines


def generate(seed: int, out: Path) -> dict[str, Path]:
    """Write the three datasets and the fixture file into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"perfbench-{seed}")
    paths = {name: out / name for name in (*DATASETS, FIXTURES)}
    _write_csv(paths["trial.csv"], _dataset_rows(rng, site_sizes()))
    _write_csv(paths["wide.csv"], _dataset_rows(rng, site_sizes(WIDE_FACTOR)))
    _write_csv(paths["zero_heavy.csv"],
               _dataset_rows(rng, site_sizes(), ZERO_HEAVY_RATES, ZERO_SITE_SHARE))
    paths[FIXTURES].write_text("\n".join(_fixture_lines(rng)) + "\n", encoding="utf-8")
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for path in generate(args.seed, args.out).values():
        print(path)


if __name__ == "__main__":
    main()

"""Sample-efficiency experiment: 70:30 site split with training subsampling.

One seeded stratified split fixes the test set for the whole experiment.
The training sites are then subsampled at each rho level (nested within a
replication: larger rho extends the smaller site set) and the model is
refit and rescored per (condition, rho, replication) cell, with a fresh
elicitation per cell for LLM conditions.  The meta-analytical baseline is
the full-data reference and runs at rho = 1 only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import seeding
from .crossval import stratify_sites
from .data import DataError, Dataset
from .pipeline import CellOutcome, CvCondition, plan_cell, run_cells
from .sampler import McmcConfig

DEFAULT_RHO_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


def train_test_split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Site-level stratified split; patients follow their sites.

    A stratum with fewer than 2 sites cannot contribute to both halves;
    it goes entirely to train with a warning.  When no stratum holds 2
    sites the test set would be empty, which raises ``DataError``.
    """
    strata = stratify_sites(dataset)
    if all(stratum.n_sites < 2 for stratum in strata):
        sizes = ", ".join(f"{s.label.value} {s.n_sites}" for s in strata)
        raise DataError("the train/test split leaves the test set empty: no stratum "
                        f"holds 2 or more sites (sites per stratum: {sizes})")
    train_sites: list[str] = []
    test_sites: list[str] = []
    for stratum in strata:
        n = stratum.n_sites
        if n == 0:
            continue
        if n < 2:
            warnings.warn(
                f"stratum {stratum.label.value!r} has {n} site(s); "
                "assigning all to train", stacklevel=2)
            train_sites.extend(stratum.site_ids)
            continue
        rng = seeding.rng(spec.seed, "split", stratum.label.value)
        order = rng.permutation(n)
        n_train = _round_half_up(spec.train_fraction * n)
        n_train = min(max(n_train, 1), n - 1)  # both halves keep >= 1 site
        for i, idx in enumerate(order):
            (train_sites if i < n_train else test_sites).append(stratum.site_ids[idx])
    return dataset.subset_by_sites(train_sites), dataset.subset_by_sites(test_sites)


def subsample_training(train: Dataset, rho: float, seed: int) -> Dataset:
    """Retain round(rho * n) sites per stratum (>= 1 per nonempty stratum).

    The retained set at a larger rho is a superset of the set at a smaller
    rho for the same seed, because each stratum keeps a prefix of one fixed
    seeded permutation.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    if rho == 1.0:
        return train
    kept: list[str] = []
    for stratum in stratify_sites(train):
        n = stratum.n_sites
        if n == 0:
            continue
        rng = seeding.rng(seed, "subsample", stratum.label.value)
        order = rng.permutation(n)
        n_keep = max(_round_half_up(rho * n), 1)
        kept.extend(stratum.site_ids[idx] for idx in order[:n_keep])
    return train.subset_by_sites(kept)


@dataclass(frozen=True)
class EfficiencyCell:
    """All replications of one (condition, rho) combination."""

    condition: CvCondition
    rho: float
    runs: tuple[CellOutcome, ...]  # indexed by replication - 1

    @property
    def lpd_mean(self) -> float:
        return float(np.mean([r.mean_lpd for r in self.runs]))

    @property
    def lpd_sd(self) -> float:
        vals = [r.mean_lpd for r in self.runs]
        return float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0

    @property
    def train_patients_mean(self) -> float:
        return float(np.mean([r.n_train_patients for r in self.runs]))

    @property
    def train_patients_range(self) -> tuple[int, int]:
        counts = [r.n_train_patients for r in self.runs]
        return min(counts), max(counts)


@dataclass(frozen=True)
class EfficiencyResult:
    cells: tuple[EfficiencyCell, ...]
    n_test_sites: int
    n_test_patients: int


def run_efficiency_experiment(
    dataset: Dataset,
    conditions: list[CvCondition],
    mcmc: McmcConfig,
    transport,
    rho_grid: tuple[float, ...] = DEFAULT_RHO_GRID,
    n_replications: int = 20,
    train_fraction: float = 0.7,
    seed: int = 0,
) -> EfficiencyResult:
    """Run every (condition, rho, replication) cell against one fixed test set.

    ``seed`` fixes the train/test split as well as every cell.  The
    subsampling seed is a function of the replication index alone, so all
    conditions and rho levels within a replication see the same site
    permutations (and nested subsampling makes rho levels comparable).
    Each LLM condition runs at every rho in ``rho_grid`` and elicits a fresh
    prior per cell with its own settings, so n_replications independent
    batches per sample size; the baseline runs at rho = 1 only.
    """
    if n_replications < 1:
        raise ValueError("n_replications must be >= 1")
    for rho in rho_grid:  # before any cell elicits its prior
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"rho must be in (0, 1], got {rho}")
    train, test = train_test_split(
        dataset, SplitSpec(train_fraction=train_fraction, seed=seed))

    plan: list[tuple[CvCondition, float]] = []
    groups = []
    for condition in conditions:
        ident = condition.identity()
        for rho in rho_grid if condition.is_llm else (1.0,):
            plan.append((condition, rho))
            groups.append([
                plan_cell(
                    condition, transport,
                    train=subsample_training(
                        train, rho, seeding.derive_seed(seed, "eff_subsample", rep)),
                    test=test,
                    mcmc=replace(mcmc, seed=seeding.derive_seed(
                        seed, "eff_mcmc", ident, f"rho={rho:g}", rep)))
                for rep in range(1, n_replications + 1)])

    cells = tuple(EfficiencyCell(condition=condition, rho=rho, runs=runs)
                  for (condition, rho), runs in zip(plan, run_cells(groups)))
    return EfficiencyResult(cells=cells, n_test_sites=test.n_sites,
                            n_test_patients=test.n_patients)


def efficiency_table_rows(result: EfficiencyResult) -> list[dict]:
    """Per-replication rows for the delimited results export."""
    rows = []
    for cell in result.cells:
        for replication, run in enumerate(cell.runs, start=1):
            rows.append({
                "condition": cell.condition.identity(),
                "rho": f"{cell.rho:g}",
                "replication": replication,
                "n_train_patients": run.n_train_patients,
                "lpd_mean": repr(run.mean_lpd),
            })
    return rows


def efficiency_summary_rows(result: EfficiencyResult) -> list[dict]:
    """One row per (condition, rho): mean/SD over replications."""
    rows = []
    for cell in result.cells:
        lo, hi = cell.train_patients_range
        rows.append({
            "condition": cell.condition.identity(),
            "rho": f"{cell.rho:g}",
            "n_replications": len(cell.runs),
            "lpd_mean": repr(cell.lpd_mean),
            "lpd_sd": repr(cell.lpd_sd),
            "train_patients_mean": repr(cell.train_patients_mean),
            "train_patients_min": lo,
            "train_patients_max": hi,
        })
    return rows

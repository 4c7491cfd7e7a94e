"""Sample-efficiency experiment: 70:30 site split with training subsampling.

One seeded stratified split, at the fixed ``TRAIN_FRACTION``, fixes the
test set for the whole experiment.  The training sites are then
subsampled at each rho level (nested within a replication: larger rho
extends the smaller site set), both by cutting the seeded stratum orders
of ``crossval.shuffled_strata``, and the model is rescored per
(condition, rho, replication) cell, by the exact posterior
predictive LPD (``pipeline.run_cells``), with a fresh elicitation per
cell for LLM conditions.  Each distinct training subsample is one
``evaluation.Split`` against the one fixed test set, shared by every cell
that trains on it.  The meta-analytical baseline is
the full-data reference and runs at rho = 1 only.
"""

from __future__ import annotations

import math
import statistics
import warnings
from dataclasses import dataclass

import numpy as np

from . import seeding
from .crossval import SiteStratum, shuffled_strata, stratify_sites
from .data import DataError, Dataset
from .evaluation import Split
from .model import DEFAULT_RHO_GRID
from .pipeline import CellOutcome, CvCondition, run_cells

TRAIN_FRACTION = 0.7  # the paper's 70:30 site split


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class SplitSpec:
    seed: int = 0


def require_test_sites(strata: list[SiteStratum]) -> None:
    """Raise ``DataError`` when no stratum holds the 2 sites that give the
    70:30 split a test site."""
    if all(stratum.n_sites < 2 for stratum in strata):
        sizes = ", ".join(f"{s.label.value} {s.n_sites}" for s in strata)
        raise DataError("the train/test split leaves the test set empty: no stratum "
                        f"holds 2 or more sites (sites per stratum: {sizes})")


def train_test_split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Site-level stratified 70:30 split; patients follow their sites.

    Each shuffled stratum is cut at its train count.  A stratum with
    fewer than 2 sites cannot contribute to both halves; it goes entirely
    to train with a warning.  When no stratum holds 2 sites the test set
    would be empty, which raises ``DataError``.
    """
    strata = stratify_sites(dataset)
    require_test_sites(strata)
    train_sites: list[str] = []
    test_sites: list[str] = []
    for stratum, sites in shuffled_strata(strata, spec.seed, "split"):
        n = len(sites)
        if n < 2:
            warnings.warn(
                f"stratum {stratum.label.value!r} has {n} site(s); "
                "assigning all to train", stacklevel=2)
            train_sites.extend(sites)
            continue
        n_train = _round_half_up(TRAIN_FRACTION * n)
        n_train = min(max(n_train, 1), n - 1)  # both halves keep >= 1 site
        train_sites.extend(sites[:n_train])
        test_sites.extend(sites[n_train:])
    return dataset.subset_by_sites(train_sites), dataset.subset_by_sites(test_sites)


def subsample_training(train: Dataset, rho: float, seed: int) -> Dataset:
    """Retain round(rho * n) sites per stratum (>= 1 per nonempty stratum).

    The retained set at a larger rho is a superset of the set at a smaller
    rho for the same seed, because each stratum keeps a prefix of its
    shuffled sites.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    if rho == 1.0:
        return train
    kept: list[str] = []
    for _, sites in shuffled_strata(stratify_sites(train), seed, "subsample"):
        kept.extend(sites[:max(_round_half_up(rho * len(sites)), 1)])
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
        vals = [r.mean_lpd for r in self.runs]  # exact, so equal scores give 0.0
        return statistics.stdev(vals) if len(vals) > 1 else 0.0

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
    transport,
    rho_grid: tuple[float, ...] = DEFAULT_RHO_GRID,
    n_replications: int = 20,
    seed: int = 0,
    *,
    audit: list | None = None,
) -> EfficiencyResult:
    """Run every (condition, rho, replication) cell against one fixed test set.

    ``seed`` fixes the train/test split and the subsamples.  The
    subsampling seed is a function of the replication index alone, so all
    conditions and rho levels within a replication see the same site
    permutations (and nested subsampling makes rho levels comparable).
    Each LLM condition runs at every rho in ``rho_grid`` and elicits a fresh
    prior per cell with its own settings, so n_replications independent
    batches per sample size; the baseline runs at rho = 1 only.  Cells with
    the same training sites share one ``Split``, and so its quadrature
    terms: every replication at rho = 1 trains on the whole training half,
    so the baseline is scored once there.  Every elicitation record is
    appended to ``audit`` as its query completes.
    """
    if n_replications < 1:
        raise ValueError("n_replications must be >= 1")
    for rho in rho_grid:  # before any cell elicits its prior
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"rho must be in (0, 1], got {rho}")
    train, test = train_test_split(dataset, SplitSpec(seed=seed))
    splits: dict[tuple[str, ...], Split] = {}  # by training sites

    def split(rho: float, rep: int) -> Split:
        sub = subsample_training(train, rho, seeding.derive_seed(seed, "eff_subsample", rep))
        if sub.site_ids not in splits:
            splits[sub.site_ids] = Split(sub, test)
        return splits[sub.site_ids]

    levels = [(condition, rho) for condition in conditions
              for rho in (rho_grid if condition.is_llm else (1.0,))]
    outcomes = run_cells([(condition, split(rho, rep)) for condition, rho in levels
                          for rep in range(1, n_replications + 1)], transport, audit)
    n = n_replications
    cells = tuple(EfficiencyCell(condition=condition, rho=rho,
                                 runs=tuple(outcomes[i * n:(i + 1) * n]))
                  for i, (condition, rho) in enumerate(levels))
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

"""Site-stratified 5-fold cross-validation comparing prior sources.

Sites are stratified by patient count (small <= 2, medium 3-4, large >= 5)
and dealt round-robin into folds after a seeded shuffle within each
stratum, so every fold sees all site types.  Each condition is either the
meta-analytical baseline prior or an LLM-elicited prior refreshed per
fold; the model is refit on the training sites and scored on the held-out
sites every time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from . import seeding
from .data import Dataset
from .pipeline import CellOutcome, CvCondition, plan_cell, run_cells
from .sampler import McmcConfig

SMALL_MAX = 2   # sites with <= 2 patients
MEDIUM_MAX = 4  # 3-4 patients; >= 5 is large


class StratumLabel(enum.Enum):
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


@dataclass(frozen=True)
class SiteStratum:
    label: StratumLabel
    site_ids: tuple[str, ...]

    @property
    def n_sites(self) -> int:
        return len(self.site_ids)


def stratify_sites(dataset: Dataset) -> list[SiteStratum]:
    """Partition sites into small/medium/large by patient count."""
    buckets: dict[StratumLabel, list[str]] = {label: [] for label in StratumLabel}
    for site_id, n in zip(dataset.site_ids, dataset.site_sizes().tolist()):
        if n <= SMALL_MAX:
            label = StratumLabel.SMALL
        elif n <= MEDIUM_MAX:
            label = StratumLabel.MEDIUM
        else:
            label = StratumLabel.LARGE
        buckets[label].append(site_id)
    return [SiteStratum(label=label, site_ids=tuple(buckets[label]))
            for label in StratumLabel]


@dataclass(frozen=True)
class FoldAssignment:
    k: int
    fold_of_site: dict[str, int]

    def test_sites(self, fold: int) -> tuple[str, ...]:
        return tuple(s for s, f in self.fold_of_site.items() if f == fold)

    def train_sites(self, fold: int) -> tuple[str, ...]:
        return tuple(s for s, f in self.fold_of_site.items() if f != fold)


def make_folds(strata: list[SiteStratum], k: int, seed: int) -> FoldAssignment:
    """Deal each stratum's sites round-robin into k folds after a seeded
    shuffle; every fold needs a stratum of at least k sites."""
    if k < 2:
        raise ValueError("k must be >= 2")
    total = sum(s.n_sites for s in strata)
    if k > total:
        raise ValueError(f"k = {k} exceeds total site count {total}")
    largest = max(s.n_sites for s in strata)
    if k > largest:
        raise ValueError(f"k = {k} leaves fold(s) {', '.join(map(str, range(largest, k)))} "
                         f"without sites: the largest stratum holds {largest}")
    fold_of_site: dict[str, int] = {}
    for stratum in strata:
        if not stratum.site_ids:
            continue
        rng = seeding.rng(seed, "cv_folds", stratum.label.value)
        order = rng.permutation(len(stratum.site_ids))
        for i, idx in enumerate(order):
            fold_of_site[stratum.site_ids[idx]] = i % k
    return FoldAssignment(k=k, fold_of_site=fold_of_site)


@dataclass(frozen=True)
class CvResult:
    condition: CvCondition
    per_fold: tuple[CellOutcome, ...]  # indexed by fold

    def __post_init__(self):
        if not self.per_fold:
            raise ValueError("per_fold must be nonempty")

    def _all_patients(self) -> np.ndarray:
        return np.concatenate([np.asarray(f.lpd.per_patient) for f in self.per_fold])

    @property
    def pooled_mean_lpd(self) -> float:
        """Mean LPD across every held-out patient (primary summary)."""
        return float(self._all_patients().mean())

    @property
    def pooled_sd_lpd(self) -> float:
        vals = self._all_patients()
        return float(vals.std(ddof=1)) if vals.size > 1 else 0.0

    @property
    def fold_mean_lpd(self) -> float:
        """Mean of per-fold mean LPDs (secondary summary)."""
        return float(np.mean([f.mean_lpd for f in self.per_fold]))

    @property
    def fold_sd_lpd(self) -> float:
        means = [f.mean_lpd for f in self.per_fold]
        return float(np.std(means, ddof=1)) if len(means) > 1 else 0.0


def run_cv_experiment(dataset: Dataset, conditions: list[CvCondition],
                      mcmc: McmcConfig, transport, k: int = 5, seed: int = 0,
                      n_jobs: int = 1) -> list[CvResult]:
    """Fit and score every (condition, fold) cell.

    Elicitation happens while planning, condition by condition and fold by
    fold, so the transport sees a deterministic request stream; the
    expensive fits then run through ``run_cells`` at any parallelism level
    without affecting results.  Seeds are derived from the condition
    identity (not its list position), so reordering or dropping conditions
    never changes another condition's numbers.
    """
    folds = make_folds(stratify_sites(dataset), k=k, seed=seed)
    splits = [(dataset.subset_by_sites(folds.train_sites(fold)),
               dataset.subset_by_sites(folds.test_sites(fold))) for fold in range(k)]
    groups = []
    for condition in conditions:
        ident = condition.identity()
        groups.append([
            plan_cell(condition, transport, train=train, test=test,
                      mcmc=replace(mcmc, seed=seeding.derive_seed(seed, "cv_mcmc", ident, fold)),
                      lpd_seed=seeding.derive_seed(seed, "cv_lpd", ident, fold))
            for fold, (train, test) in enumerate(splits)])
    return [CvResult(condition=condition, per_fold=outcomes)
            for condition, outcomes in zip(conditions, run_cells(groups, n_jobs=n_jobs))]


def cv_table_rows(results: list[CvResult]) -> list[dict]:
    """Per-fold rows for the delimited results export."""
    rows = []
    for res in results:
        cond = res.condition
        for fold, f in enumerate(res.per_fold):
            rows.append({
                "model": cond.elicit.model_id if cond.is_llm else "meta_analytical",
                "prompt_type": cond.strategy.value if cond.is_llm else "none",
                "temperature": f"{cond.elicit.temperature:g}" if cond.is_llm else "",
                "fold": fold,
                "alpha_rate": repr(f.spec.alpha_rate),
                "beta_rate": repr(f.spec.beta_rate),
                "lpd_mean": repr(f.mean_lpd),
                "lpd_sd": repr(f.lpd.sd_lpd),
            })
    return rows


def cv_summary_rows(results: list[CvResult]) -> list[dict]:
    """One row per condition: pooled (per-patient) and fold-level summaries."""
    return [{
        "condition": res.condition.identity(),
        "pooled_lpd_mean": repr(res.pooled_mean_lpd),
        "pooled_lpd_sd": repr(res.pooled_sd_lpd),
        "fold_lpd_mean": repr(res.fold_mean_lpd),
        "fold_lpd_sd": repr(res.fold_sd_lpd),
    } for res in results]

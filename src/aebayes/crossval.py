"""Site-stratified 5-fold cross-validation comparing prior sources.

Sites are stratified by patient count (small <= 2, medium 3-4, large >= 5),
held as one mapping of each label to its site ids (``stratify_sites``).
``shuffled_strata`` is the one seeded shuffle of each stratum that every
site selection cuts: the folds here, and the 70:30 split and training
subsamples of ``efficiency``.  Folds deal each shuffled stratum
round-robin, so every fold sees all site types.  Each condition is either
the meta-analytical baseline prior or an LLM-elicited prior refreshed per
fold; every cell scores the held-out sites by their exact posterior
predictive LPD given the training sites (``pipeline.run_cells``), with the
fold's quadrature terms built once for all conditions (one
``evaluation.Split`` per fold).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import seeding
from .data import Dataset
from .evaluation import Split
from .pipeline import CellOutcome, CvCondition, run_cells

SMALL_MAX = 2   # sites with <= 2 patients
MEDIUM_MAX = 4  # 3-4 patients; >= 5 is large


def stratify_sites(dataset: Dataset) -> dict[str, tuple[str, ...]]:
    """Map "small", "medium" and "large", in that order, to the site ids of
    that stratum, in site order."""
    small, medium, large = [], [], []
    for site_id, n in zip(dataset.site_ids, dataset.site_sizes().tolist()):
        (small if n <= SMALL_MAX else medium if n <= MEDIUM_MAX else large).append(site_id)
    return {"small": tuple(small), "medium": tuple(medium), "large": tuple(large)}


def shuffled_strata(strata: dict[str, tuple[str, ...]], seed: int,
                    purpose: str) -> Iterator[tuple[str, tuple[str, ...]]]:
    """Yield each nonempty stratum's label with its sites in a seeded order.

    The order is the permutation drawn from the stream (seed, purpose,
    label), so a stratum's order depends on neither the other strata nor
    the order they come in.
    """
    for label, ids in strata.items():
        if ids:
            order = seeding.rng(seed, purpose, label).permutation(len(ids))
            yield label, tuple(ids[i] for i in order)


@dataclass(frozen=True)
class FoldAssignment:
    fold_of_site: dict[str, int]

    def test_sites(self, fold: int) -> tuple[str, ...]:
        return tuple(s for s, f in self.fold_of_site.items() if f == fold)

    def train_sites(self, fold: int) -> tuple[str, ...]:
        return tuple(s for s, f in self.fold_of_site.items() if f != fold)


def make_folds(strata: dict[str, tuple[str, ...]], k: int, seed: int) -> FoldAssignment:
    """Deal each shuffled stratum's sites round-robin into k folds; every
    fold needs a stratum of at least k sites."""
    if k < 2:
        raise ValueError("k must be >= 2")
    sizes = [len(ids) for ids in strata.values()]
    if k > sum(sizes):
        raise ValueError(f"k = {k} exceeds total site count {sum(sizes)}")
    largest = max(sizes)
    if k > largest:
        raise ValueError(f"k = {k} leaves fold(s) {', '.join(map(str, range(largest, k)))} "
                         f"without sites: the largest stratum holds {largest}")
    return FoldAssignment(fold_of_site={
        site: i % k for _, sites in shuffled_strata(strata, seed, "cv_folds")
        for i, site in enumerate(sites)})


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
                      transport, k: int = 5, seed: int = 0, *,
                      audit: list | None = None) -> list[CvResult]:
    """Score every (condition, fold) cell; ``seed`` fixes the folds.

    ``run_cells`` elicits and scores condition by condition and fold by
    fold, each cell from its own data and prior alone, so reordering or
    dropping conditions never changes another condition's numbers; every
    condition shares each fold's ``Split`` and so its quadrature terms.
    Every elicitation record is appended to ``audit`` as its query
    completes.
    """
    folds = make_folds(stratify_sites(dataset), k=k, seed=seed)
    splits = [Split(dataset.subset_by_sites(folds.train_sites(fold)),
                    dataset.subset_by_sites(folds.test_sites(fold)))
              for fold in range(k)]
    outcomes = run_cells([(condition, split) for condition in conditions
                          for split in splits], transport, audit)
    return [CvResult(condition=condition, per_fold=tuple(outcomes[i * k:(i + 1) * k]))
            for i, condition in enumerate(conditions)]


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

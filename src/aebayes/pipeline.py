"""One way to plan and run the cells of both experiments.

A cell is a ``(condition, split)`` pair: a prior source, and an
``evaluation.Split`` of the training data and the held-out data.  Each
experiment builds one ``Split`` per distinct training set (per fold, or
per subsample) and shares it among every condition that scores it, so the
quadrature's prior-free terms are built once per training set and a cell
repeated with the same prior is scored once.  Each experiment plans its
cells as one flat list (condition by condition, then fold by fold, or rho
by rho and replication by replication) and slices the outcomes that
``run_cells`` returns in the same order.

A ``CvCondition`` (defined in ``elicitation``) names the prior source: the
meta-analytical baseline, or a prompt strategy with its own
``ElicitationConfig``, which every cell of that condition sends as given.
``run_cells`` makes one pass over the plan: it elicits a cell's prior (the
baseline needs no transport) and then scores the cell by ``Split.lpd``,
the exact posterior predictive LPD of the held-out patients on a checked
grid over (log alpha, log beta), with no chains, seeds or R-hat.  So the
transport sees a deterministic request stream, each outcome is a pure
function of its own cell's data and spec (a shared ``Split`` gives the
bits of one built for the cell alone), and a run that fails at a cell
sends no query for the cells after it.  Every query's record is appended
to the caller's ``audit`` list as it completes, so the caller can write
the audit log on any exit path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elicitation import AggregatedPrior, CvCondition, ElicitationRecord, elicit_prior
from .evaluation import LpdResult, Split
from .model import META_ANALYTICAL, HyperPriorSpec


@dataclass(frozen=True)
class CellOutcome:
    """What one cell produced, with the prior it was fitted under."""

    spec: HyperPriorSpec
    prior: AggregatedPrior | None
    lpd: LpdResult
    n_train_patients: int

    @property
    def mean_lpd(self) -> float:
        return self.lpd.mean_lpd

    @property
    def n_test_patients(self) -> int:
        return self.lpd.n_patients


def run_cells(plan: list[tuple[CvCondition, Split]], transport,
              audit: list[ElicitationRecord] | None = None) -> list[CellOutcome]:
    """Elicit each cell's prior, then score the cell, in plan order; one
    outcome per ``(condition, split)`` pair."""
    outcomes = []
    for condition, split in plan:
        prior = (elicit_prior(condition.strategy, condition.elicit, transport, audit)
                 if condition.is_llm else None)
        spec = prior.spec if prior else META_ANALYTICAL
        outcomes.append(CellOutcome(spec=spec, prior=prior, lpd=split.lpd(spec),
                                    n_train_patients=split.train.n_patients))
    return outcomes

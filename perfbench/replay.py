"""The traced run: each workload's command made again through the library's
public functions, with one span around every call into a layer.

Only functions that the README's library API and the experiment modules
export are called (``load_dataset``, ``run_mcmc``, ``lpd_dataset``,
``elicit_prior``, ``FixtureTransport``, ``compute_rhat``, ``export_draws``
and the split and fold helpers), so internal refactors of a layer do not
break the replay.  Cell seeds need not match the CLI's: the replay does
the same work, not necessarily the same arithmetic.

Layers a workload's command never calls are still called once, as probe
spans, so every per-layer metric is measured on every workload; probes are
left out of the self time that ``cli.remainder_s`` subtracts.
"""

from __future__ import annotations

import math

from aebayes import META_ANALYTICAL, McmcConfig, load_dataset, lpd_dataset, run_mcmc
from aebayes.crossval import make_folds, stratify_sites
from aebayes.efficiency import SplitSpec, subsample_training, train_test_split
from aebayes.elicitation import ElicitationConfig, FixtureTransport, PromptStrategy, elicit_prior
from aebayes.sampler import compute_rhat, export_draws

import gen
from diagnostics import ess_bulk
from gen import EFF_CONDITION, EFF_REPLICATIONS, K_FOLDS, N_CHAINS, N_QUERIES, RHO_GRID
from spans import SpanRecorder

CV_CONDITIONS = [None] + [(m, s, t) for m in gen.MODELS for s in gen.STRATEGIES
                          for t in gen.TEMPERATURES]


class Replay:
    """One replay of one workload's command; per-cell figures in ``cells``."""

    def __init__(self, rec: SpanRecorder, inputs: dict, seed: int, work,
                 chains: tuple[int, int]):
        self.rec, self.inputs, self.seed, self.work = rec, inputs, seed, work
        self.n_warmup, self.n_draws = chains
        self.iterations = N_CHAINS * (self.n_warmup + self.n_draws)  # chain sweeps per fit
        self.cells: list[dict] = []
        self.queries = self.failed_queries = 0
        self.lpd_patients = 0
        self.export_bytes = 0
        self.largest: dict | None = None   # cell with the most training sites
        self.smallest: dict | None = None

    def run(self, workload: str) -> None:
        {"cv-trial": self.cv_trial, "efficiency-wide": self.efficiency_wide,
         "fit-zero-heavy": self.fit_zero_heavy}[workload]()

    def mcmc(self, seed: int, **kwargs) -> McmcConfig:
        return McmcConfig(n_chains=N_CHAINS, n_warmup=self.n_warmup, n_draws=self.n_draws,
                          seed=seed, **kwargs)

    # -- layers

    def load(self, name: str):
        with self.rec.span("data.load"):
            return load_dataset(self.inputs[name])

    def transport(self, probe: bool = False):
        with self.rec.span("elicitation.elicit", probe=probe):
            return FixtureTransport.from_path(self.inputs[gen.FIXTURES])

    def elicit(self, transport, condition, n_queries: int, cell: str, probe: bool = False):
        if condition is None:
            return META_ANALYTICAL
        model, strategy, temperature = condition
        cfg = ElicitationConfig(model_id=model, temperature=temperature, n_queries=n_queries)
        with self.rec.span("elicitation.elicit", cell, probe):
            prior = elicit_prior(PromptStrategy(strategy), cfg, transport)
        self.queries += len(prior.records)
        self.failed_queries += len(prior.records) - prior.n_successes
        return prior.spec

    def cv_plan(self, dataset, probe: bool = False):
        """(train, test) per fold."""
        with self.rec.span("crossval.plan", probe=probe):
            folds = make_folds(stratify_sites(dataset), k=K_FOLDS, seed=self.seed)
            return [(dataset.subset_by_sites(folds.train_sites(f)),
                     dataset.subset_by_sites(folds.test_sites(f))) for f in range(K_FOLDS)]

    def efficiency_plan(self, dataset, probe: bool = False):
        """The fixed test set and the training subset per (rho, replication)."""
        with self.rec.span("efficiency.plan", probe=probe):
            train, test = train_test_split(dataset, SplitSpec(seed=self.seed))
            subsets = {(rho, rep): subsample_training(train, rho, self.seed + rep)
                       for rho in RHO_GRID for rep in range(1, EFF_REPLICATIONS + 1)}
            return test, subsets

    def cell(self, cell: str, train, test, spec, fit_seed: int):
        """One fit-and-score cell (no scoring when ``test`` is None)."""
        with self.rec.span("sampler.fit", cell) as fit_span:
            draws = run_mcmc(train, spec, self.mcmc(fit_seed))
        fit_s = fit_span["end"] - fit_span["start"]
        rhat_s = self.rhat(cell, draws, hyper=True)
        if test is not None:
            with self.rec.span("evaluation.lpd", cell):
                lpd = lpd_dataset(test, draws, seed=fit_seed)
            if not all(math.isfinite(v) for v in lpd.per_patient):
                raise ArithmeticError(f"non-finite LPD in cell {cell}")
            self.lpd_patients += test.n_patients
        info = {"cell": cell, "fit_s": fit_s, "rhat_s": rhat_s, "n_sites": train.n_sites,
                "ess_min": min(ess_bulk(draws.alpha), ess_bulk(draws.beta)),
                "flagged": len(draws.rhat_flags()), "n_params": len(draws.diagnostics)}
        self.cells.append(info)
        kept = dict(info, train=train, spec=spec, draws=draws)
        if self.largest is None or train.n_sites > self.largest["n_sites"]:
            self.largest = kept
        if self.smallest is None or train.n_sites < self.smallest["n_sites"]:
            self.smallest = kept
        return draws

    def rhat(self, cell: str, draws, hyper: bool, name: str = "sampler.rhat") -> float:
        """Probe: the split R-hat ``run_mcmc`` computes, over the same
        parameters, so its share of a fit can be taken out."""
        with self.rec.span(name, cell, probe=True) as s:
            if hyper:
                compute_rhat(draws.alpha)
                compute_rhat(draws.beta)
            for j in range(draws.lambdas.shape[2]):
                compute_rhat(draws.lambdas[:, :, j])
        return s["end"] - s["start"]

    def export(self, cell: str, draws, probe: bool) -> None:
        path = self.work / "export.csv"
        with self.rec.span("sampler.export", cell, probe):
            export_draws(draws, path)
        self.export_bytes += path.stat().st_size
        path.unlink()

    def lambda_probe(self) -> tuple[float, float]:
        """Per-iteration microseconds of (full fit, lambda step alone) on the
        largest cell.  A fit with (alpha, beta) frozen at that cell's
        posterior means runs only the lambda Gibbs step; the difference is
        the alpha/beta Metropolis step and its adaptation."""
        big = self.largest
        frozen = (float(big["draws"].alpha.mean()), float(big["draws"].beta.mean()))
        with self.rec.span("sampler.fit_frozen", big["cell"], probe=True) as s:
            fz = run_mcmc(big["train"], big["spec"],
                          self.mcmc(self.seed, freeze_hyperparams=frozen))
        lambda_s = s["end"] - s["start"] - self.rhat(big["cell"], fz, hyper=False,
                                                        name="sampler.rhat_frozen")
        full_s = big["fit_s"] - big["rhat_s"]
        return full_s / self.iterations * 1e6, lambda_s / self.iterations * 1e6

    # -- workloads

    def cv_trial(self) -> None:
        dataset = self.load("trial.csv")
        splits = self.cv_plan(dataset)
        transport = self.transport()
        for i, condition in enumerate(CV_CONDITIONS):
            for fold, (train, test) in enumerate(splits):
                cell = f"{i}|fold={fold}"
                spec = self.elicit(transport, condition, N_QUERIES, cell)
                self.cell(cell, train, test, spec, self.seed * 1000 + len(self.cells))
        self.efficiency_plan(dataset, probe=True)
        self.export(self.smallest["cell"], self.smallest["draws"], probe=True)

    def efficiency_wide(self) -> None:
        dataset = self.load("wide.csv")
        test, subsets = self.efficiency_plan(dataset)
        transport = self.transport()
        for i, condition in enumerate((None, EFF_CONDITION)):
            # the baseline runs at full training data only
            for rho in ((1.0,) if condition is None else RHO_GRID):
                for rep in range(1, EFF_REPLICATIONS + 1):
                    cell = f"{i}|rho={rho:g}|rep={rep}"
                    spec = self.elicit(transport, condition, 1, cell)
                    self.cell(cell, subsets[(rho, rep)], test, spec,
                              self.seed * 1000 + len(self.cells))
        self.cv_plan(dataset, probe=True)
        self.export(self.smallest["cell"], self.smallest["draws"], probe=True)

    def fit_zero_heavy(self) -> None:
        dataset = self.load("zero_heavy.csv")
        draws = self.cell("fit", dataset, None, META_ANALYTICAL, self.seed)
        self.export("fit", draws, probe=False)
        self.cv_plan(dataset, probe=True)
        self.efficiency_plan(dataset, probe=True)
        self.elicit(self.transport(probe=True), EFF_CONDITION, N_QUERIES, "probe", probe=True)
        with self.rec.span("evaluation.lpd", "fit", probe=True):
            lpd = lpd_dataset(dataset, draws, seed=self.seed)
        self.lpd_patients += lpd.n_patients

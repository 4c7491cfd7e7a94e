"""Helpers shared by the test modules: synthetic datasets and an in-memory
dataset reader and writer, fixture transports, a point-mass posterior for
closed-form oracles and a reference draw writer."""

from __future__ import annotations

import csv
import io
import os

import numpy as np

from aebayes.data import HEADER, Dataset, _parse_rows
from aebayes.elicitation import FixtureTransport
from aebayes.sampler import McmcConfig, PosteriorDraws


def make_rows(site_sizes: list[int], seed: int = 0,
              mean_rate: float = 3.0) -> list[tuple[str, str, int]]:
    """Synthetic ``(site_id, patient_id, ae_count)`` rows with the given site
    sizes and Poisson counts."""
    rng = np.random.default_rng(seed)
    rows = []
    for j, n in enumerate(site_sizes):
        lam = rng.gamma(2.0, mean_rate / 2.0)
        for _ in range(n):
            rows.append((f"site{j:03d}", f"pat{len(rows):04d}", int(rng.poisson(lam))))
    return rows


def make_dataset(site_sizes: list[int], seed: int = 0,
                 mean_rate: float = 3.0) -> Dataset:
    """Synthetic dataset with the given site sizes and Poisson counts."""
    return Dataset.from_rows(make_rows(site_sizes, seed, mean_rate))


def loads_dataset(text: str, source: str = "<string>") -> Dataset:
    """Parse a dataset from an in-memory string (same validation as load_dataset)."""
    return _parse_rows(io.StringIO(text, newline=""), source=source)


def write_dataset(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write a dataset back to the documented format (load ∘ write is identity)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for patient_id, j, count in zip(dataset.patient_ids, dataset.site_of,
                                        dataset.ae_counts):
            writer.writerow([dataset.site_ids[j], patient_id, count])


# enough sites in every stratum for 5 folds and a 70:30 split
MIXED_SITE_SIZES = [1, 2, 2, 1, 2, 3, 4, 3, 4, 3, 5, 6, 8, 5, 7,
                    2, 1, 3, 4, 5, 6, 2, 3, 4, 5, 1, 2, 3, 4, 6]


def fixture_transport(responses: list[str], model: str, strategy: str,
                      temperature: float) -> FixtureTransport:
    """Transport replaying the given bodies for one (model, strategy, T)."""
    return FixtureTransport(records=[
        {"model": model, "strategy": strategy, "temperature": temperature,
         "response": body}
        for body in responses
    ])


def point_mass_draws(alpha: float, beta: float, n_samples: int,
                     site_ids: tuple[str, ...] = ()) -> PosteriorDraws:
    """Degenerate PosteriorDraws fixed at one (alpha, beta) point.

    Its predictive distribution for a new site is the closed-form negative
    binomial, which the LPD oracles compare against.  Non-positive values
    raise ValueError through ``McmcConfig``.
    """
    config = McmcConfig(n_chains=1, n_warmup=1, n_draws=n_samples,
                        freeze_hyperparams=(alpha, beta))
    return PosteriorDraws(
        alpha=np.full((1, n_samples), alpha),
        beta=np.full((1, n_samples), beta),
        lambdas=np.empty((1, n_samples, 0)),
        site_ids=site_ids,
        config=config,
    )


def reference_export_draws(draws: PosteriorDraws, path,
                           include_hyperparams: bool = True) -> None:
    """``export_draws`` written the plain way, one ``csv.writer`` row per
    value: the bytes the fast writer must reproduce."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["chain", "draw", "parameter", "value"])
        n_chains, n_draws = draws.alpha.shape
        for c in range(n_chains):
            for d in range(n_draws):
                if include_hyperparams:
                    writer.writerow([c, d, "alpha", repr(float(draws.alpha[c, d]))])
                    writer.writerow([c, d, "beta", repr(float(draws.beta[c, d]))])
                for j, site_id in enumerate(draws.site_ids):
                    writer.writerow(
                        [c, d, f"lambda[{site_id}]", repr(float(draws.lambdas[c, d, j]))]
                    )

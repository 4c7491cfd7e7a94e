"""The hierarchical Poisson-Gamma model and its hyperprior spec.

Model structure, for patient i in site j with AE count y_ij:

    y_ij     ~ Poisson(lambda_j)
    lambda_j ~ Gamma(alpha, beta)
    alpha    ~ Exponential(alpha_rate)
    beta     ~ Exponential(beta_rate)

Gamma is parameterized by (shape, rate) throughout: mean = shape / rate.
Exponential is parameterized by rate: mean = 1 / rate.  Mixing in a scale
parameterization is the classic silent bug here, so every density states
the convention it expects.  The sampler's collapsed log posterior lives in
``sampler``.

This module also holds the sampler's settings (``McmcConfig``), its error
(``NumericalError``), the default subsampling grid (``DEFAULT_RHO_GRID``),
the two prompt strategies (``PromptStrategy``) and the base class of the
elicitation errors (``ElicitationError``).  It imports no numpy, so the CLI
checks every setting, and ``ingest`` runs, without loading numpy.  Nor do
they need ``elicitation``: the CLI imports that module, with its hashing and
JSON code, only when ``elicit``, ``cv``, ``efficiency`` or ``report`` runs;
``ingest`` and ``fit`` never load it.  ``sampler``, ``efficiency`` and
``elicitation`` import these names from here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class HyperPriorSpec:
    """Rates of the exponential hyperpriors on the Gamma shape and rate."""

    alpha_rate: float
    beta_rate: float

    def __post_init__(self):
        if not (0 < self.alpha_rate < math.inf and 0 < self.beta_rate < math.inf):
            raise ValueError(
                f"hyperprior rates must be finite and > 0, got "
                f"({self.alpha_rate}, {self.beta_rate})"
            )


#: Meta-analytical baseline: Exponential(0.1) on both hyperparameters.
META_ANALYTICAL = HyperPriorSpec(alpha_rate=0.1, beta_rate=0.1)


#: Training fractions rho of the sample-efficiency experiment.
DEFAULT_RHO_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)


class NumericalError(RuntimeError):
    """Non-finite log density encountered during sampling."""


class PromptStrategy(enum.Enum):
    """The two prompts an LLM is asked (``elicitation.build_prompt``)."""

    BLIND = "blind"
    DISEASE_INFORMED = "disease_informed"


class ElicitationError(RuntimeError):
    """Base class for elicitation failures."""


@dataclass(frozen=True)
class McmcConfig:
    """Chain configuration; the defaults are the reference setup
    (4 chains, 1000 warmup + 1000 kept draws)."""

    n_chains: int = 4
    n_warmup: int = 1000
    n_draws: int = 1000
    seed: int = 0
    freeze_hyperparams: tuple[float, float] | None = None
    no_data: bool = False

    def __post_init__(self):
        if self.n_chains < 1 or self.n_warmup < 1 or self.n_draws < 1:
            raise ValueError("n_chains, n_warmup and n_draws must be positive")
        if self.freeze_hyperparams is not None and not all(
                0 < v < math.inf for v in self.freeze_hyperparams):
            raise ValueError("frozen hyperparameters must be finite and positive")

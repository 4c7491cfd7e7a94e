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
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HyperPriorSpec:
    """Rates of the exponential hyperpriors on the Gamma shape and rate."""

    alpha_rate: float
    beta_rate: float

    def __post_init__(self):
        if not (self.alpha_rate > 0 and self.beta_rate > 0):
            raise ValueError(
                f"hyperprior rates must be > 0, got "
                f"({self.alpha_rate}, {self.beta_rate})"
            )


#: Meta-analytical baseline: Exponential(0.1) on both hyperparameters.
META_ANALYTICAL = HyperPriorSpec(alpha_rate=0.1, beta_rate=0.1)

"""Hierarchical Bayesian adverse-event modeling with LLM-elicited hyperpriors."""

__version__ = "0.1.0"

from .data import Dataset, DataError, load_dataset, summarize
from .model import META_ANALYTICAL, HyperPriorSpec
from .sampler import McmcConfig, PosteriorDraws, run_mcmc
from .evaluation import LpdResult, lpd_dataset

__all__ = [
    "Dataset",
    "DataError",
    "load_dataset",
    "summarize",
    "META_ANALYTICAL",
    "HyperPriorSpec",
    "McmcConfig",
    "PosteriorDraws",
    "run_mcmc",
    "LpdResult",
    "lpd_dataset",
    "__version__",
]

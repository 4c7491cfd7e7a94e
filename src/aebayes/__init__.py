"""Hierarchical Bayesian adverse-event modeling with LLM-elicited hyperpriors.

Importing the package loads no numpy: the sampler's and the LPD's public
names are imported from their modules on first access.
"""

import importlib

__version__ = "0.1.0"

from .data import Dataset, DataError, load_dataset, summarize
from .model import META_ANALYTICAL, HyperPriorSpec, McmcConfig

# public name -> the module that defines it, imported on first access
_LAZY = {
    "PosteriorDraws": "sampler",
    "run_mcmc": "sampler",
    "LpdResult": "evaluation",
    "lpd_dataset": "evaluation",
}

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


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value

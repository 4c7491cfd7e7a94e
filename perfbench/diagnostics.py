"""Convergence diagnostics the benchmark computes from a fit's outputs.

``ess_bulk`` is the rank-normalised split bulk effective sample size of
Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021), "Rank-normalization,
folding, and localization: an improved R-hat for assessing convergence of
MCMC", Bayesian Analysis 16(2): chains are split in half, all draws are
replaced by the normal scores of their pooled ranks, and the multi-chain
autocorrelation is summed with Geyer's initial monotone sequence.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, lags 0..n-1, via FFT."""
    n = x.shape[-1]
    centred = x - x.mean(axis=-1, keepdims=True)
    size = 2 ** math.ceil(math.log2(2 * n))
    spectrum = np.fft.rfft(centred, n=size, axis=-1)
    return np.fft.irfft(spectrum * np.conj(spectrum), n=size, axis=-1)[..., :n] / n


def _ess(chains: np.ndarray) -> float:
    """Multi-chain ESS of an (m, n) array (Stan's estimator)."""
    m, n = chains.shape
    acov = _autocovariance(chains)
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus == 0.0:
        return float("nan")
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    # Geyer's initial positive sequence: sum pairs (rho[2k], rho[2k+1])
    # while the pair sum stays positive ...
    pairs = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    positive = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: positive[0]] if positive.size else pairs
    # ... made monotone non-increasing
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * pairs.sum()
    total = m * n
    return total / max(tau, 1.0 / math.log10(total))


def ess_bulk(chains) -> float:
    """Rank-normalised split bulk ESS of one parameter's (n_chains, n_draws) draws."""
    arr = np.asarray(chains, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 4:
        raise ValueError(f"expected (n_chains, n_draws >= 4), got shape {arr.shape}")
    half = arr.shape[1] // 2
    split = np.vstack([arr[:, :half], arr[:, arr.shape[1] - half:]])
    ranks = rankdata(split, method="average").reshape(split.shape)
    z = ndtri((ranks - 0.375) / (split.size + 0.25))
    return _ess(z)


def read_hyper_draws(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) arrays of shape (n_chains, n_draws) from an exported
    ``chain,draw,parameter,value`` draws file."""
    series: dict[str, dict[int, list[float]]] = {"alpha": {}, "beta": {}}
    with open(path, "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            chain, _, name, value = line.rstrip("\n").split(",", 3)
            if name in series:
                series[name].setdefault(int(chain), []).append(float(value))
    alpha, beta = (np.array([s[c] for c in sorted(s)]) for s in series.values())
    return alpha, beta


_ROW = re.compile(r"^(\S+)\s+(\S+)$")


def rhat_report(text: str, threshold: float = 1.1) -> tuple[int, int]:
    """(flagged, total) parameters in the R-hat table of a
    ``fit_diagnostics.txt`` report; a parameter is flagged at R-hat >= threshold."""
    values = []
    for line in text.splitlines()[2:]:
        if not line.strip():
            break
        match = _ROW.match(line)
        if match is None:
            raise ValueError(f"unexpected report line: {line!r}")
        values.append(float(match.group(2)))
    if not values:
        raise ValueError("report has no parameter rows")
    return sum(v >= threshold for v in values), len(values)

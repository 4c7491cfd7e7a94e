"""Collapsed sampler for the hierarchical Poisson-Gamma model, run by ``fit``.

With the site rates integrated out, the posterior of (alpha, beta) is
two-dimensional: site j (event total t_j, n_j patients) contributes
beta^alpha Gamma(alpha + t_j) / (Gamma(alpha) (beta + n_j)^(alpha + t_j)),
which ``_LogTarget`` evaluates from sufficient statistics.  The ratio
Gamma(alpha + t) / Gamma(alpha) is the rising factorial
alpha (alpha + 1) ... (alpha + t - 1), so its log needs only numpy's log:
summed over sites it is sum_k N_k log(alpha + k), N_k the number of sites
whose total exceeds k.  The terms stop at B = ``_RISING_BOUND``; a total t
above B adds lgamma(alpha + t) - lgamma(alpha + B) from a Stirling series
(``_lgamma_above``, which the LPD shares through ``log_rising``).

All chains of a fit are the rows of one (n_chains, 2) state, and every
row takes one Gaussian random-walk Metropolis step on (log alpha, log beta)
per iteration.  ``_LogTarget`` holds each statistic as a (K, 1) column
broadcast against the rows, and the K terms are summed one at a time, so a
row's value, and its chain, do not depend on the other rows.
``_LogTarget`` holds the data's statistics alone; the hyperprior's rates
are an argument of its call, so cells that share a training set compute
them once.

Chain c of a fit draws its start, proposal normals and acceptance uniforms
up front from its own stream ``seeding.rng(seed, c)``, a fixed count per
iteration, so its draws do not depend on the number of chains.  Warmup
adapts each chain's kernel (Haario, Saksman & Tamminen 2001;
Roberts & Rosenthal 2009): the log step scale moves after every iteration
by (accepted - _TARGET_ACCEPT) times a gain decaying as k ** -0.6.  At
the end of each 50-iteration window but the last, a chain that moved at
least 10 times in the latter half of its warmup so far takes 2.38^2 / 2
times the covariance of those draws as its proposal, and its scale and gain
start afresh.  The kept draws use the final kernel unchanged.

Given (alpha, beta), lambda_j ~ Gamma(alpha + t_j, beta + n_j) exactly:
``run_mcmc`` draws every site rate for every kept draw, one
``standard_gamma`` call per chain, for the ``fit`` export and site R-hat.

Split R-hat is reported for alpha, beta and every site rate;
``PosteriorDraws.rhat_flags`` flags each parameter whose R-hat is not
below ``RHAT_THRESHOLD`` (1.1, fixed), nan included.

``export_draws`` writes the draws, a table of (chain, draw) rows, as one
csv line per value in ``repr``'s shortest round-trip form, whose bytes
``_floatrepr.repr_bytes`` gives a block of rows at a time.  The lines are
assembled as bytes in NUL-padded slots whose padding is deleted as they
are written; a NUL in a site id is carried as 0xFF, which UTF-8 never
holds.  The module and its tables load only when a fit is exported.  When
the rows fill more than one block, on two or more usable CPUs, a forked
child formats their later half into an anonymous temporary file, which
this process appends after its own half, so no byte depends on the fork.

The chain settings ``McmcConfig`` and the error ``NumericalError`` are
defined in ``model``, which imports no numpy, so the CLI checks its
settings without loading this module; both import from here as well.
"""

from __future__ import annotations

import csv
import io
import math
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .data import Dataset
from .model import HyperPriorSpec, McmcConfig, NumericalError

# Gamma draws with tiny shape can underflow to exactly 0.0, which the log
# densities cannot absorb; rates are floored at this positive value.
_RATE_FLOOR = 1e-300

# warmup adaptation, as the module docstring describes; _TARGET_ACCEPT is
# the one-dimensional optimum (Gelman, Roberts & Gilks 1996) and _RW_SCALE
# 2.38**2 / d for a d = 2 Gaussian target
_ADAPT_WINDOW = 50
_TARGET_ACCEPT = 0.44
_GAIN_DECAY = 0.6
_MIN_MOVES = 10
_RW_SCALE = 2.38 ** 2 / 2
_INITIAL_STEP = 0.5
# sites per split-R-hat block and rows per export block, so no temporary
# grows with the site count
_BLOCK_ROWS = 64
# values per export block: one pass of ``_floatrepr.repr_bytes``, whose
# temporaries (64 KB per 64-bit array) then do not grow with the fit.  A
# 125-site fit's 508,000 draws took 0.135 s in blocks of 64 rows, against
# 0.151 s at 4096 values and 0.29 s at 65536 (2-vCPU Xeon, numpy 2.4)
_BLOCK_VALUES = 8192
# an export line's bytes as written: its NUL padding deleted, then each 0xFF,
# a NUL of a name, turned back into a NUL
_UNPAD = bytes.maketrans(b"\xff", b"\0")
# a parameter whose split R-hat is at least this is flagged as not converged
RHAT_THRESHOLD = 1.1
# B: a log rising factorial takes one log(alpha + k) term per k below B, and
# a total above B its part above B from a Stirling series (``log_rising``),
# so no term array grows past B rows; the bench's largest site total is 180
_RISING_BOUND = 256


@dataclass(frozen=True)
class PosteriorDraws:
    """Post-warmup draws from all chains, plus split-R-hat diagnostics.

    ``alpha`` and ``beta`` have shape (n_chains, n_draws); ``lambdas`` has
    shape (n_chains, n_draws, n_sites) aligned with ``site_ids``.
    """

    alpha: np.ndarray
    beta: np.ndarray
    lambdas: np.ndarray
    site_ids: tuple[str, ...]
    diagnostics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for arr in (self.alpha, self.beta, self.lambdas):
            arr.setflags(write=False)

    def pooled_hyperparams(self) -> tuple[np.ndarray, np.ndarray]:
        """All (alpha, beta) draws flattened across chains."""
        return self.alpha.reshape(-1), self.beta.reshape(-1)

    def rhat_flags(self) -> dict[str, float]:
        """Parameters whose R-hat is not below ``RHAT_THRESHOLD``: at least
        it, inf from degenerate chains, or nan."""
        return {k: v for k, v in self.diagnostics.items() if not v < RHAT_THRESHOLD}


class _LogTarget:
    """log p(log alpha, log beta | data) up to a constant at (R, 2) points,
    under the hyperprior's ``rates`` (alpha_rate, beta_rate) of each call:
    J alpha log(beta) + sum_k N_k log(alpha + k)
    + sum_{t > B} c_t [lgamma(alpha + t) - lgamma(alpha + B)]
    - sum_n (alpha M_n + T_n) log(beta + n) - alpha_rate alpha - beta_rate beta
    + log(alpha) + log(beta), over J sites with patients: N_k of them have a
    total above k, for k below the largest total and B = _RISING_BOUND; c_t
    have the total t; and M_n have n patients and T_n events.  The sums over
    k and over t > B make up sum_t c_t [lgamma(alpha + t) - lgamma(alpha)]
    (see ``log_rising``), and J alpha log(beta) is stored as a size of 0.
    Sites without patients carry no likelihood, so ``no_data`` leaves the
    hyperprior."""

    def __init__(self, totals: np.ndarray, sizes: np.ndarray):
        columns = (np.asarray(c, np.float64)[:, None] for c in _site_terms(totals, sizes))
        (self.shifts, self.shift_weights, self.tails, self.tail_weights, self.sizes,
         self.size_sites, self.size_events) = columns

    def __call__(self, x: np.ndarray, rates: tuple[float, float]) -> np.ndarray:
        e = np.exp(x)
        a, b = e[:, 0], e[:, 1]
        return (self.rising(a)
                - _sum_terms((a * self.size_sites + self.size_events) * np.log(b + self.sizes))
                + ((x[:, 0] - a * rates[0]) + (x[:, 1] - b * rates[1])))

    def rising(self, a: np.ndarray) -> np.ndarray:
        """sum_t c_t [lgamma(a + t) - lgamma(a)] at each alpha of the 1-D ``a``."""
        out = _sum_terms(np.log(a + self.shifts) * self.shift_weights)
        if len(self.tails):  # no total above B adds 0
            out += _sum_terms(_lgamma_above(a, self.tails) * self.tail_weights)
        return out

    def grid_terms(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
        """The data's terms of the target on the grid of alphas ``a`` and
        betas ``b``: R(alpha) = ``rising``, and A(beta) and B(beta),
        -sum_n M_n log(beta + n) and -sum_n T_n log(beta + n).  The target
        at (a[i], b[j]) is R + alpha A + B - alpha_rate alpha - beta_rate
        beta + log alpha + log beta: K logs per alpha and one per size and
        beta, not K per point."""
        log_b = np.log(b + self.sizes)
        return (self.rising(a), -(self.size_sites * log_b).sum(axis=0),
                -(self.size_events * log_b).sum(axis=0))


def _site_terms(totals: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, ...]:
    """One fit's shifts k and their weights N_k, totals above B and their
    counts, sizes, size sites and size events (see ``_LogTarget``)."""
    totals, sizes = totals[sizes > 0], sizes[sizes > 0]
    shifts = np.arange(min(totals.max(initial=0.0), _RISING_BOUND))
    ordered = np.sort(totals)
    tails, tail_counts = np.unique(totals[totals > _RISING_BOUND], return_counts=True)
    n, of_size = np.unique(sizes, return_inverse=True)
    return (shifts, ordered.size - np.searchsorted(ordered, shifts, side="right"),
            tails, tail_counts,
            np.concatenate(([0.0], n)),
            np.concatenate(([-sizes.size], np.bincount(of_size, minlength=n.size))),
            np.concatenate(([0.0], np.bincount(of_size, totals, n.size))))


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    """Sum a (K, R) array over K, adding one term at a time in order (no
    terms sum to 0).  numpy does so along a leading axis, except for a
    single column, which it sums pairwise; that would give a one-chain fit
    other bits."""
    if terms.shape[1] > 1 or not len(terms):
        return terms.sum(axis=0)
    return np.cumsum(terms, axis=0)[-1]


def _lgamma_above(a, t):
    """lgamma(a + t) - lgamma(a + B) for totals t >= B and a >= 0, broadcast.
    Every argument is at least B, so the Stirling series of lgamma, cut
    after its 1 / z^5 term, is accurate to double precision with no
    recurrence shift; (z + d - 1/2) log(z + d) - (z - 1/2) log(z) - d is
    written with log1p, not as a difference of two large terms."""
    z = a + _RISING_BOUND
    d = t - _RISING_BOUND
    return (d * (np.log(z) - 1.0) + (z + d - 0.5) * np.log1p(d / z)
            + (_stirling_series(z + d) - _stirling_series(z)))


def _stirling_series(z):
    """lgamma(z) - (z - 1/2) log(z) + z - log(2 pi) / 2 for z >= B: the
    series 1/(12 z) - 1/(360 z^3) + 1/(1260 z^5), whose next term is below
    1e-20 there."""
    w = 1.0 / (z * z)
    return (1.0 / 12.0 - w * (1.0 / 360.0 - w / 1260.0)) / z


def log_rising(alpha: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """lgamma(alpha + y) - lgamma(alpha), the log rising factorial, for each
    non-negative integer y of ``counts`` (rows) and alpha of the 1-D
    ``alpha`` (columns): a running sum of log(alpha + k) over k < min(y, B),
    plus ``_lgamma_above`` for y above B."""
    counts = np.asarray(counts, dtype=np.int64)
    shifts = np.arange(min(counts.max(initial=0), _RISING_BOUND), dtype=np.float64)
    sums = np.zeros((shifts.size + 1, alpha.size))
    np.cumsum(np.log(alpha + shifts[:, None]), axis=0, out=sums[1:])
    out = sums[np.minimum(counts, _RISING_BOUND)]
    above = counts > _RISING_BOUND
    if above.any():
        out[above] += _lgamma_above(alpha, counts[above, None].astype(np.float64))
    return out


def _draw_lambdas(alpha, beta, totals: np.ndarray, sizes: np.ndarray,
                  rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """Exact Gamma(alpha + t, beta + n) site rates, with (alpha, beta)
    broadcast against the sites (a column of draws gives one row each)."""
    draws = rng.standard_gamma(np.add(alpha, totals, out=out), out=out)
    draws *= 1.0 / np.add(beta, sizes)
    return np.maximum(draws, _RATE_FLOOR, out=draws)


def _site_columns(dataset: Dataset, config: McmcConfig) -> tuple[np.ndarray, np.ndarray]:
    """Event totals and patient counts per site, as floats; zero under ``no_data``."""
    keep = 0.0 if config.no_data else 1.0
    return dataset.site_totals() * keep, dataset.site_sizes() * keep


def _sample_hyperparams(dataset: Dataset, spec: HyperPriorSpec,
                        config: McmcConfig) -> tuple[np.ndarray, np.ndarray, list]:
    """The kept (alpha, beta) draws, each of shape (n_chains, n_draws), and
    the chains' generators, positioned after the draws each consumed."""
    n_chains, n_warmup = config.n_chains, config.n_warmup
    rngs = [seeding.rng(config.seed, c) for c in range(n_chains)]
    if config.freeze_hyperparams is not None:
        return (*(np.full((n_chains, config.n_draws), v) for v in config.freeze_hyperparams),
                rngs)
    n_iter = n_warmup + config.n_draws
    x = np.empty((n_chains, 2))
    normals = np.empty((n_iter, n_chains, 2))
    log_u = np.empty((n_iter, n_chains))
    for r, rng in enumerate(rngs):
        # overdispersed starts straight from the hyperprior
        x[r] = rng.exponential(1.0 / spec.alpha_rate), rng.exponential(1.0 / spec.beta_rate)
        normals[:, r] = rng.standard_normal((n_iter, 2))
        log_u[:, r] = np.log(rng.random(n_iter))
    log_post = _LogTarget(*_site_columns(dataset, config))
    rates = (spec.alpha_rate, spec.beta_rate)
    x = np.log(np.maximum(x, 1e-8))
    with np.errstate(all="ignore"):  # a start that overflows is caught just below
        lp = log_post(x, rates)
    if not np.isfinite(lp).all():  # e.g. an inf start drawn under a tiny rate
        chains = ", ".join(map(str, np.flatnonzero(~np.isfinite(lp)).tolist()))
        raise NumericalError(f"the log posterior at the start of chain(s) {chains} "
                             "is not finite")
    trace = np.empty((n_iter, n_chains, 2))
    factor = np.tile(np.eye(2), (n_chains, 1, 1))  # Cholesky factor of the proposal shape
    log_step = np.full(n_chains, math.log(_INITIAL_STEP))
    gain_from = 0  # the iteration the step's gain sequence last started at
    # the kept draws run in windows too, so no temporary grows with n_draws
    bounds = [*range(0, n_warmup, _ADAPT_WINDOW), *range(n_warmup, n_iter, _ADAPT_WINDOW),
              n_iter]
    for lo, hi in zip(bounds, bounds[1:]):
        warmup = hi <= n_warmup
        if lo == n_warmup:  # the kept draws use the final kernel
            factor *= np.exp(log_step)[:, None, None]
        steps = (factor * normals[lo:hi, :, None, :]).sum(axis=-1)
        with np.errstate(all="ignore"):  # a proposal that overflows scores -inf or nan
            for it in range(lo, hi):
                prop = x + (np.exp(log_step)[:, None] * steps[it - lo] if warmup
                            else steps[it - lo])
                lp_prop = log_post(prop, rates)
                acc = log_u[it] < lp_prop - lp  # a nan proposal is rejected
                x = trace[it] = np.where(acc[:, None], prop, x)
                lp = np.where(acc, lp_prop, lp)
                if warmup:
                    gain = (it + 1 - gain_from) ** -_GAIN_DECAY
                    log_step += (acc - _TARGET_ACCEPT) * gain
        if hi - lo == _ADAPT_WINDOW and hi <= n_warmup - _ADAPT_WINDOW:
            # reshape by the latter half of the warmup so far where it moved enough
            recent = trace[hi // 2 - 1:hi]
            dev = recent[1:] - recent[1:].mean(axis=0)
            cov = (dev[..., :, None] * dev[..., None, :]).sum(axis=0)
            ok = (np.diff(recent, axis=0) != 0).any(axis=2).sum(axis=0) >= _MIN_MOVES
            factor[ok] = np.linalg.cholesky(cov[ok] * (_RW_SCALE / (len(dev) - 1)))
            log_step[ok] = 0.0
            gain_from = hi
    return (*np.exp(trace[n_warmup:].transpose(2, 1, 0).copy()), rngs)


def run_mcmc(dataset: Dataset, spec: HyperPriorSpec, config: McmcConfig) -> PosteriorDraws:
    """Fit the hierarchical model and return draws with diagnostics.

    Each kept (alpha, beta) draw gets one exact draw of every site rate.  In
    ``no_data`` mode the likelihood is suppressed and the chains sample the
    prior; with ``freeze_hyperparams`` set, (alpha, beta) stay fixed and only
    the conjugate site-rate draws move.
    """
    alpha, beta, rngs = _sample_hyperparams(dataset, spec, config)
    totals, sizes = _site_columns(dataset, config)
    lambdas = np.empty(alpha.shape + totals.shape)
    for c, rng in enumerate(rngs):
        _draw_lambdas(alpha[c, :, None], beta[c, :, None], totals, sizes, rng, out=lambdas[c])
    if not all(np.isfinite(draws).all() for draws in (alpha, beta, lambdas)):
        raise NumericalError("non-finite draw in posterior output")
    diagnostics = {}
    if config.n_chains >= 2 and config.n_draws >= 4:
        if config.freeze_hyperparams is None:
            diagnostics.update(alpha=compute_rhat(alpha), beta=compute_rhat(beta))
        for start in range(0, totals.size, _BLOCK_ROWS):
            block = lambdas[:, :, start:start + _BLOCK_ROWS].transpose(2, 0, 1)
            site_ids = dataset.site_ids[start:start + _BLOCK_ROWS]
            for site_id, rhat in zip(site_ids, _split_rhat(block).tolist()):
                diagnostics[f"lambda[{site_id}]"] = rhat

    return PosteriorDraws(
        alpha=alpha, beta=beta, lambdas=lambdas,
        site_ids=dataset.site_ids, diagnostics=diagnostics,
    )


def _split_rhat(chains: np.ndarray) -> np.ndarray:
    """Split R-hat (see ``compute_rhat``) of each of P parameters at once,
    from chains of shape (P, n_chains, n_draws).

    Every split half-chain becomes one row of a C-contiguous 2-D array and
    each reduction runs along a 2-D array's rows, so each parameter's sums
    run in the same order whatever P is; a 3-D array reduced along its last
    axis sums in another order and changes the last bits.
    """
    n_params, n_chains, n_draws = chains.shape
    half = n_draws // 2
    rows = np.concatenate([chains[:, :, :half], chains[:, :, n_draws - half:]], axis=1)
    rows = rows.reshape(n_params * 2 * n_chains, half)
    # chains stuck near the largest floats overflow the variances: their
    # R-hat comes out nan, which ``rhat_flags`` flags
    with np.errstate(over="ignore", invalid="ignore"):
        within = rows.var(axis=1, ddof=1).reshape(n_params, 2 * n_chains).mean(axis=1)
        between = half * rows.mean(axis=1).reshape(n_params, 2 * n_chains).var(axis=1, ddof=1)
        var_hat = (half - 1) / half * within + between / half
        # zero within-chain variance is degenerate: report inf, not nan
        rhat = np.full(n_params, math.inf)
        np.divide(var_hat, within, out=rhat, where=within != 0.0)
        return np.sqrt(rhat, out=rhat)


def compute_rhat(chains: np.ndarray) -> float:
    """Split Gelman-Rubin R-hat for one parameter.

    Each chain is halved (dropping the middle draw when odd), then the
    classic between/within variance ratio is computed on the half-chains.
    Zero within-chain variance is degenerate and reported as inf rather
    than raising.
    """
    arr = np.asarray(chains, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected (n_chains, n_draws) array, got shape {arr.shape}")
    if arr.shape[0] < 2 or arr.shape[1] < 4:
        raise ValueError("need at least 2 chains and 4 draws per chain")
    return float(_split_rhat(arr[None])[0])


def _can_fork() -> bool:
    """Whether an export may format half its rows in a forked child: not
    on one usable CPU, without ``os.fork``, or while another Python thread
    runs, whose locks a forked child could inherit held.  (OpenBLAS stops
    its own threads when this process forks.)"""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def export_draws(draws: PosteriorDraws, path: str | os.PathLike,
                 include_hyperparams: bool = True) -> None:
    """Dump draws as columnar delimited text: chain, draw, parameter, value.

    The bytes are those of one ``csv.writer`` row per value, each value
    written as ``repr(float)``, Python's shortest round-trip form: every
    value must be positive and finite, as every kept draw is, or this raises
    ``ValueError`` naming its parameter, chain and draw before it forks or
    opens ``path``.  Each parameter name is csv-escaped once.  Row
    c * n_draws + d of the draws' table is draw d of chain c, and the rows
    are formatted in blocks of at most _BLOCK_ROWS rows and _BLOCK_VALUES
    values (at least one row), each in one pass of
    ``_floatrepr.repr_bytes``.  A block's lines are laid out in fixed-width
    slots padded with NULs, and the padding is dropped as the block is
    written; a NUL inside a name is held as 0xFF, a byte that no UTF-8 text
    holds, and restored then.

    When the rows fill more than one block and ``_can_fork()``, a forked
    child writes the later half of the rows to an anonymous temporary file
    that this process opened; this process writes the header and the first
    half, then reaps the child and appends its file, so the bytes do not
    depend on the fork and no part file stays on disk, however the
    processes end.  A child that fails makes this raise ``RuntimeError``
    naming the chain and draw of its first row.  On any exception, an
    interrupt included, a child still running is killed and reaped before
    the exception propagates.
    """
    import signal  # here alone: cv and efficiency import this module

    from ._floatrepr import WIDTH, repr_bytes

    names = [f"lambda[{site_id}]" for site_id in draws.site_ids]
    if include_hyperparams:
        names = ["alpha", "beta"] + names
    # the csv-escaped "<parameter>," of each column, in column order
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = []
    for name in names:
        buf.seek(0)
        buf.truncate()
        writer.writerow((name, ""))
        columns.append(buf.getvalue()[:-1].encode("utf-8").replace(b"\0", b"\xff"))
    n_chains, n_draws = draws.alpha.shape
    # views of the chain-major table: row c * n_draws + d is draw d of chain c
    alpha, beta = draws.pooled_hyperparams()
    lambdas = draws.lambdas.reshape(alpha.size, draws.lambdas.shape[2])
    table = [alpha[:, None], beta[:, None], lambdas] if include_hyperparams else [lambdas]
    valid = np.hstack([(part > 0) & (part < np.inf) for part in table])
    if not valid.all():
        row, column = divmod(int(valid.argmin()), len(columns))
        chain, draw = divmod(row, n_draws)
        raise ValueError(f"{names[column]} at chain {chain}, draw {draw} is "
                         f"{float(np.hstack(table)[row, column])!r}, not positive and finite")
    step = max(1, min(_BLOCK_ROWS, _BLOCK_VALUES // max(len(columns), 1)))
    # a block of lines, one per row and column: "<c>,<d>,", the column's
    # "<parameter>,", the value and a newline, each part left-aligned in its
    # own NUL-padded slot
    prefix_width = len(f"{n_chains - 1},{n_draws - 1},")
    name_width = max(map(len, columns), default=0)
    name_end = prefix_width + name_width
    line = np.zeros((step, len(columns), name_end + WIDTH + 1), dtype=np.uint8)
    name_bytes = np.array(columns, dtype=f"S{name_width}").view(np.uint8)
    line[:, :, prefix_width:name_end] = name_bytes.reshape(len(columns), name_width)
    line[:, :, -1] = ord("\n")

    def write_rows(fh, rows: range) -> None:
        for lo in range(rows.start, rows.stop, step):
            hi = min(lo + step, rows.stop)
            block = np.hstack([part[lo:hi] for part in table])
            prefix = np.array([f"{r // n_draws},{r % n_draws}," for r in range(lo, hi)],
                              dtype=f"S{prefix_width}").view(np.uint8)
            out = line[:hi - lo]
            out[:, :, :prefix_width] = prefix.reshape(-1, 1, prefix_width)
            out[:, :, name_end:-1] = repr_bytes(block)
            fh.write(out.tobytes().translate(_UNPAD, b"\0"))

    # without a single column (no sites, hyperparameters left out) a draw has
    # no line
    n_rows = alpha.size if columns else 0
    half = n_rows // 2 if n_rows > step and _can_fork() else n_rows
    theirs = range(half, n_rows)  # the child's rows, if it forks
    part = tempfile.TemporaryFile() if theirs else None
    pid = None  # the child's, until it is reaped
    try:
        if theirs:
            # no interrupt between the fork and the child's pid being kept
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    # leave by _exit alone, so the child runs no atexit hook,
                    # flushes no stdio buffer it inherited and none of the
                    # caller's cleanup
                    code = 1
                    try:
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                        write_rows(part, theirs)
                        part.flush()
                        code = 0
                    finally:
                        os._exit(code)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        with open(path, "wb") as fh:
            fh.write(b"chain,draw,parameter,value\n")
            write_rows(fh, range(half))
            if theirs:
                status = os.waitpid(pid, 0)[1]
                reaped, pid = pid, None
                if status:
                    chain, draw = divmod(half, n_draws)
                    raise RuntimeError(
                        f"the draws export from chain {chain}, draw {draw} on failed "
                        f"in process {reaped} (exit status {os.waitstatus_to_exitcode(status)})")
                part.seek(0)
                shutil.copyfileobj(part, fh)
    except BaseException:
        try:
            # a child reaped just before the interrupt is no longer ours, and
            # its pid may already name another process
            if pid is not None and os.waitpid(pid, os.WNOHANG)[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:
            pass
        raise
    finally:
        if part is not None:
            part.close()

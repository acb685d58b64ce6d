"""One-shot verification suite over the ordering machinery and the optimizer.

Runs randomized majorization, Laplace-transform order, Schur-concavity and
complete-monotonicity probes, the expectation-ordering lemma, a
deterministic check that the secrecy rate itself is Schur-concave
(R(d*) >= R(d) whenever d* is majorized by d, by Hamdi's MGF integral), and
one optimizer run that must land on the uniform allocation. Margins use the
convention "claim holds iff margin >= -1e-12". Every probe is exact to
rounding, so the suite draws nothing and its output depends only on the seed.

Every probe is array work, through to its report. The pairs of one
dimension are drawn by one Dirichlet and one uniform call, and each pair
probe evaluates them in one call per dimension (and per sigma, or per side
of the pair and ratio). The rate probe asks the MGF evaluator for rates
only, without the gradient, one ordinary call per side and per ratio. The
probes of one pair dimension are one task;
channel._pool_map runs them in the calling thread and in the chunk pool's
worker processes. It claims tasks in list order, and the suite lists the
largest dimension first, so that task starts first; the calling thread then
runs the ascent. A task computes the same margins wherever it runs, so the
output does not depend on the core count. A task in a worker runs under
numpy's default np.errstate, not the caller's (a context variable in numpy
2); the suite sets off no floating-point error, even under
np.errstate(all="raise"), so that changes nothing. The complete-monotonicity
grid is one array evaluation of the closed form. It and the lemma's two
canonical cases are the same at every seed, so each process computes them
once (_cm_margins, _canonical_lemma) and keeps them as read-only arrays.
Each lemma case's margin is its exact difference E f(q2) - E f(q1), a
difference of two MGF rates and at a = 0 Frullani's integral
(ordering._lemma_exact). Each report holds its probe's margins as one array
and labels a point only when it is read (the CLI reads the worst).

Exit code semantics (mirrored by the CLI): 0 all margins hold and the
optimizer reached uniform; 1 some margin or the optimizer tolerance failed.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import channel
from .channel import _PAIRS_TAG, ChannelModel, _seeds
from .optimize import OptimizerConfig, optimize_allocation
from .ordering import (
    OrderCheckReport,
    _cm_derivatives,
    _lemma_exact,
    _lt_gaps_grid,
    _majorization_margin,
    _random_majorization_pairs,
)
from .rates import _mgf_rate

# _PAIRS random pairs: dimension drawn from _PAIR_DIMS, total power _PAIR_TOTAL
_PAIRS = 400
_PAIR_DIMS = (2, 3, 4, 8)
_PAIR_TOTAL = 4.0
# LT probe's s grid size
_S_POINTS = 50
# the lemma's a: two on the canonical spike-vs-flat pair, one on a random pair
_LEMMA_CANONICAL_A = (0.25, 0.0)
_LEMMA_RANDOM_A = 0.5
# complete-monotonicity grid: a values, log-spaced x in [1e-3, 1e3], orders 0.._CM_ORDERS
_CM_A_GRID = (0.0, 0.1, 0.5, 0.9)
_CM_X_POINTS = 25
_CM_ORDERS = 10

# both entry-variance conventions are probed; ordering is invariant to the constant
_LT_SIGMAS = (1.0, np.sqrt(2.0))
# sigma_g/sigma_h ratios of the secrecy-rate Schur probe (sigma_h = 1)
_RATE_RATIOS = (0.5, 0.9)
# the probe's sigma_g^2, each asked of the MGF evaluator once per side
_RATE_VAR_G = tuple(r * r for r in _RATE_RATIOS)


# the complete-monotonicity grid's x values
_CM_X_GRID = np.logspace(-3.0, 3.0, _CM_X_POINTS)
_CM_X_GRID.flags.writeable = False


@functools.cache
def _cm_margins() -> np.ndarray:
    """The complete-monotonicity margins, the sign-corrected derivatives on the
    (a, x, n) grid in one array call. The grid is the same at every seed, so
    they are computed once per process, as a read-only array."""
    orders = np.arange(_CM_ORDERS + 1)
    signed = np.where(orders % 2, -1.0, 1.0) * _cm_derivatives(
        np.array(_CM_A_GRID)[:, None, None], _CM_X_GRID[:, None], orders
    )
    signed.flags.writeable = False
    return signed


@functools.cache
def _canonical_lemma() -> np.ndarray:
    """The lemma's cases #0 and #1, the canonical spike-vs-flat pair at each
    of _LEMMA_CANONICAL_A: the same at every seed, so computed once per
    process, as a read-only array."""
    spike, flat = (_PAIR_TOTAL, 0.0), (_PAIR_TOTAL / 2, _PAIR_TOTAL / 2)
    lemma = np.array(_lemma_exact(spike, flat, 1.0, _LEMMA_CANONICAL_A))
    lemma.flags.writeable = False
    return lemma


@dataclass(frozen=True)
class VerifySuiteResult:
    """Named probe reports plus the optimizer-to-uniform outcome.

    optimizer_ok is True when the ascent converged within optimizer_tol of
    uniform, or was skipped.
    """

    checks: tuple[tuple[str, OrderCheckReport], ...]
    optimizer_deviation: float
    optimizer_tol: float
    optimizer_ok: bool

    @property
    def exit_code(self) -> int:
        return 0 if (all(rep.holds for _, rep in self.checks) and self.optimizer_ok) else 1

    @property
    def passed(self) -> bool:
        return self.exit_code == 0


def _pair_probes(
    d_star: np.ndarray, d: np.ndarray, s_grid: np.ndarray, s_schur: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The pair probes' margins on the (k, n) pairs of one dimension: majorization
    (k,), LT order (k, sigmas) with the index of each worst s, Schur concavity
    at the (k, 1) column s_schur (k,), and the secrecy rate's Schur concavity
    (k, ratios). Each probe is one array call (per sigma, or per side and ratio)."""
    # majorization: every generated pair must satisfy d_star majorized by d,
    # with the margin being the worst prefix-sum gap
    maj = _majorization_margin(d, d_star)
    # LT order across the whole s grid, both variance conventions
    lt = np.empty((len(d), len(_LT_SIGMAS)))
    lt_at = np.empty((len(d), len(_LT_SIGMAS)), dtype=np.intp)
    for m, sigma in enumerate(_LT_SIGMAS):
        gaps = _lt_gaps_grid(d_star, d, float(sigma), s_grid)
        lt_at[:, m] = np.argmin(gaps, axis=-1)
        lt[:, m] = np.min(gaps, axis=-1)
    # Schur concavity of S(d) = sum log2(1 + s d_k) at one random s per pair
    schur = _lt_gaps_grid(d_star, d, 1.0, s_schur)[:, 0]
    # Schur concavity of the secrecy rate itself, R(d_star) >= R(d), exact to
    # rounding; one call per side and per ratio, a column per ratio
    rate = np.stack([_mgf_rate(d_star, 1.0, v)[0] - _mgf_rate(d, 1.0, v)[0] for v in _RATE_VAR_G],
                    axis=-1)
    return maj, lt, lt_at, schur, rate


def run_verify_suite(seed: int = 0, *, run_optimizer: bool = True) -> VerifySuiteResult:
    """Run every ordering probe and (optionally) the optimizer check.

    The probe sizes are fixed: _PAIRS random (d_star, d) pairs feed the pair
    probes and the LT probe runs on _S_POINTS log-spaced s. The seed's
    generator draws the pair dimensions, then each dimension's pairs in one
    batch (in _PAIR_DIMS order), then the Schur probe's s values. The lemma's
    cases #0 and #1 are the canonical spike-vs-flat pair at two a, and case #2
    is random pair #0. The optimizer runs OptimizerConfig(seed=seed) on the
    reference problem.
    """
    rng = np.random.default_rng(_seeds(seed, _PAIRS_TAG))
    # pair i has dimension dims[i]; the pairs of one dimension are drawn
    # together, in index order, one Dirichlet and one uniform call per dimension
    dims = rng.choice(_PAIR_DIMS, size=_PAIRS)
    pairs: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for n in _PAIR_DIMS:
        rows = np.flatnonzero(dims == n)
        pairs[n] = (rows, *_random_majorization_pairs(n, _PAIR_TOTAL, rng, rows.size))
    s_draws = 10.0 ** rng.uniform(-3.0, 3.0, size=_PAIRS)
    s_grid = np.logspace(-3.0, 3.0, _S_POINTS + 1)[1:]  # half-open (1e-3, 1e3]

    # one task per pair dimension, largest first: the pool claims tasks in
    # list order, so the costliest starts first. Each task's margins are
    # written at its pairs' rows, so every report lists its points by pair,
    # then by sigma or ratio
    largest_first = sorted(_PAIR_DIMS, reverse=True)
    done = channel._pool_map([
        (_pair_probes, d_star, d, s_grid, s_draws[rows, None])
        for rows, d_star, d in (pairs[n] for n in largest_first)
    ])
    maj = np.empty(_PAIRS)
    lt = np.empty((_PAIRS, len(_LT_SIGMAS)))
    lt_at = np.empty((_PAIRS, len(_LT_SIGMAS)), dtype=np.intp)  # index of the worst s
    schur = np.empty(_PAIRS)
    rate = np.empty((_PAIRS, len(_RATE_RATIOS)))
    for n, probed in zip(largest_first, done):
        rows = pairs[n][0]
        maj[rows], lt[rows], lt_at[rows], schur[rows], rate[rows] = probed

    def lt_point(k: int) -> str:
        i, m = divmod(k, len(_LT_SIGMAS))
        s = float(s_grid[lt_at[i, m]])
        return f"pair#{i} sigma^2={float(_LT_SIGMAS[m]) ** 2:g} s={s:.6g}"

    checks: list[tuple[str, OrderCheckReport]] = []
    grid = f"{_PAIRS} random pairs, dims {_PAIR_DIMS}, total {_PAIR_TOTAL}"
    checks.append(("majorization", OrderCheckReport._of_margins(
        grid, maj, lambda i: f"pair#{i} n={dims[i]}")))
    grid = f"{_PAIRS} pairs x {_S_POINTS} log-spaced s in (1e-3, 1e3], sigma^2 in {{1, 2}}"
    checks.append(("lt_order", OrderCheckReport._of_margins(grid, lt, lt_point)))
    grid = f"{_PAIRS} pairs, one random s each, sigma^2=1"
    checks.append(("schur_concave", OrderCheckReport._of_margins(
        grid, schur, lambda i: f"pair#{i} s={float(s_draws[i]):.6g}")))

    signed = _cm_margins()

    def cm_point(k: int) -> str:
        i, j, n = np.unravel_index(k, signed.shape)
        return f"a={_CM_A_GRID[i]} x={float(_CM_X_GRID[j]):.6g} n={n}"

    grid = f"a in {{0,0.1,0.5,0.9}}, {_CM_X_POINTS}-point log x grid, n <= {_CM_ORDERS}"
    checks.append(("complete_monotone", OrderCheckReport._of_margins(grid, signed, cm_point)))

    def rate_point(k: int) -> str:
        i, m = divmod(k, len(_RATE_RATIOS))
        return f"pair#{i} sigma_g/sigma_h={_RATE_RATIOS[m]}"

    grid = f"{_PAIRS} pairs, sigma_h=1, sigma_g in {{0.5, 0.9}}, MGF integral"
    checks.append(("secrecy_rate_schur", OrderCheckReport._of_margins(grid, rate, rate_point)))

    # expectation-ordering lemma, exact: the canonical spike-vs-flat pair at
    # two a (cases #0 and #1), and random pair #0, which leads the rows of its
    # dimension (case #2)
    _, d_stars, ds = pairs[int(dims[0])]
    lemma = np.append(_canonical_lemma(), _lemma_exact(ds[0], d_stars[0], 1.0, (_LEMMA_RANDOM_A,)))
    lemma_a = (*_LEMMA_CANONICAL_A, _LEMMA_RANDOM_A)
    grid = f"{len(lemma)} cases on 2 pairs, MGF and Frullani integrals"
    checks.append(("lemma_expectation", OrderCheckReport._of_margins(
        grid, lemma, lambda j: f"case#{j} a={lemma_a[j]}")))

    # optimizer-to-uniform check on the reference problem
    opt_tol, opt_dev, opt_ok = 0.0, float("nan"), True
    if run_optimizer:
        model, P = ChannelModel(n_t=4, sigma_h=1.0, sigma_g=0.5), 4.0
        trace = optimize_allocation(model, P, OptimizerConfig(seed=seed))
        opt_dev = float(np.max(np.abs(trace.final.as_array() - P / model.n_t)))
        opt_tol = 0.01 * P
        opt_ok = trace.converged and opt_dev <= opt_tol
    return VerifySuiteResult(
        checks=tuple(checks),
        optimizer_deviation=opt_dev,
        optimizer_tol=opt_tol,
        optimizer_ok=opt_ok,
    )

"""One-shot verification suite over the ordering machinery and the optimizer.

Runs randomized majorization, Laplace-transform order, Schur-concavity and
complete-monotonicity probes, the expectation-ordering lemma, a
deterministic check that the secrecy rate itself is Schur-concave
(R(d*) >= R(d) whenever d* is majorized by d, by Hamdi's MGF integral), and
one optimizer run that must land on the uniform allocation. Margins use the
convention "claim holds iff margin >= -1e-12"; Monte Carlo probes fold their
noise in as mean + 3 * std_error.

Every probe is array work, through to its report. The pairs of one
dimension are drawn by one Dirichlet and one uniform call, and each pair
probe evaluates them in one call per dimension (and per sigma or ratio); the
rate probe asks the MGF evaluator for rates only, without the gradient. The
complete-monotonicity grid is one array evaluation of the closed form. Each
lemma case costs one log per draw, and the two canonical cases, one pair at
two a, share one stream of draws. Each report holds its probe's margins as
one array and labels a point only when it is read (the CLI reads the worst).

Exit code semantics (mirrored by the CLI): 0 all margins hold and the
optimizer reached uniform; 1 some margin or the optimizer tolerance failed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .optimize import OptimizerConfig, optimize_allocation
from .ordering import (
    OrderCheckReport,
    _cm_derivatives,
    _lemma_margins,
    _lt_gaps_grid,
    _majorization_margin,
    _random_majorization_pairs,
)
from .rates import _mgf_rate

# _PAIRS random pairs: dimension drawn from _PAIR_DIMS, total power _PAIR_TOTAL
_PAIRS = 400
_PAIR_DIMS = (2, 3, 4, 8)
_PAIR_TOTAL = 4.0
# LT probe's s grid size, and draws per expectation-lemma case
_S_POINTS = 50
_LEMMA_SAMPLES = 200_000
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


def run_verify_suite(seed: int = 0, *, run_optimizer: bool = True) -> VerifySuiteResult:
    """Run every ordering probe and (optionally) the optimizer check.

    The probe sizes are fixed: _PAIRS random (d_star, d) pairs feed the pair
    probes, the LT probe runs on _S_POINTS log-spaced s and each lemma case
    on _LEMMA_SAMPLES draws. The seed's generator draws the pair dimensions,
    then each dimension's pairs in one batch (in _PAIR_DIMS order), then the
    Schur probe's s values. The lemma's canonical cases #0 and #1 (one pair,
    two a) share the draws of seed + 0, and case #2 draws at seed + 2. The
    optimizer runs OptimizerConfig(seed=seed) on the reference problem.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed % 2**63, 11)))
    # pair i has dimension dims[i]; the pairs of one dimension are drawn
    # together, in index order, one Dirichlet and one uniform call per dimension
    dims = rng.choice(_PAIR_DIMS, size=_PAIRS)
    pairs: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for n in _PAIR_DIMS:
        rows = np.flatnonzero(dims == n)
        pairs[n] = (rows, *_random_majorization_pairs(n, _PAIR_TOTAL, rng, rows.size))
    s_draws = 10.0 ** rng.uniform(-3.0, 3.0, size=_PAIRS)
    s_grid = np.logspace(-3.0, 3.0, _S_POINTS + 1)[1:]  # half-open (1e-3, 1e3]

    # each pair probe makes one array call per pair dimension (and per sigma
    # or ratio) and writes its margins at the pairs' rows, so every report
    # lists its points by pair, then by sigma or ratio
    maj = np.empty(_PAIRS)
    lt = np.empty((_PAIRS, len(_LT_SIGMAS)))
    lt_at = np.empty((_PAIRS, len(_LT_SIGMAS)), dtype=np.intp)  # index of the worst s
    schur = np.empty(_PAIRS)
    rate = np.empty((_PAIRS, len(_RATE_RATIOS)))
    for rows, d_star, d in pairs.values():
        # majorization: every generated pair must satisfy d_star majorized by d,
        # with the margin being the worst prefix-sum gap
        maj[rows] = _majorization_margin(d, d_star)
        # LT order across the whole s grid, both variance conventions
        for m, sigma in enumerate(_LT_SIGMAS):
            gaps = _lt_gaps_grid(d_star, d, float(sigma), s_grid)
            lt_at[rows, m] = np.argmin(gaps, axis=-1)
            lt[rows, m] = np.min(gaps, axis=-1)
        # Schur concavity of S(d) = sum log2(1 + s d_k) at one random s per pair
        schur[rows] = _lt_gaps_grid(d_star, d, 1.0, s_draws[rows, None])[:, 0]
        # Schur concavity of the secrecy rate itself, R(d_star) >= R(d), exact to rounding
        for m, r in enumerate(_RATE_RATIOS):
            rate[rows, m] = _mgf_rate(d_star, 1.0, r * r)[0] - _mgf_rate(d, 1.0, r * r)[0]

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

    # complete monotonicity sign pattern on the (a, x, n) grid, in one array call
    x_grid = np.logspace(-3.0, 3.0, _CM_X_POINTS)
    orders = np.arange(_CM_ORDERS + 1)
    signed = np.where(orders % 2, -1.0, 1.0) * _cm_derivatives(
        np.array(_CM_A_GRID)[:, None, None], x_grid[:, None], orders
    )

    def cm_point(k: int) -> str:
        i, j, n = np.unravel_index(k, signed.shape)
        return f"a={_CM_A_GRID[i]} x={float(x_grid[j]):.6g} n={n}"

    grid = f"a in {{0,0.1,0.5,0.9}}, {_CM_X_POINTS}-point log x grid, n <= {_CM_ORDERS}"
    checks.append(("complete_monotone", OrderCheckReport._of_margins(grid, signed, cm_point)))

    def rate_point(k: int) -> str:
        i, m = divmod(k, len(_RATE_RATIOS))
        return f"pair#{i} sigma_g/sigma_h={_RATE_RATIOS[m]}"

    grid = f"{_PAIRS} pairs, sigma_h=1, sigma_g in {{0.5, 0.9}}, MGF integral"
    checks.append(("secrecy_rate_schur", OrderCheckReport._of_margins(grid, rate, rate_point)))

    # expectation-ordering lemma: the canonical spike-vs-flat pair at two a on
    # one stream (cases #0 and #1), and random pair #0, which leads the rows of
    # its dimension (case #2); each case's allocations share their draws
    spike, flat = (_PAIR_TOTAL, 0.0), (_PAIR_TOTAL / 2, _PAIR_TOTAL / 2)
    _, d_stars, ds = pairs[int(dims[0])]
    lemma = _lemma_margins(spike, flat, 1.0, _LEMMA_CANONICAL_A, _LEMMA_SAMPLES, seed)
    lemma += _lemma_margins(ds[0], d_stars[0], 1.0, (_LEMMA_RANDOM_A,), _LEMMA_SAMPLES, seed + 2)
    lemma_a = (*_LEMMA_CANONICAL_A, _LEMMA_RANDOM_A)
    grid = f"{len(lemma)} pairs, {_LEMMA_SAMPLES} shared draws each"
    checks.append(("lemma_expectation", OrderCheckReport._of_margins(
        grid, [margin for margin, _, _ in lemma], lambda j: f"case#{j} a={lemma_a[j]}")))

    # optimizer-to-uniform check on the reference problem
    opt_tol = 0.0
    opt_dev = float("nan")
    opt_ok = True
    if run_optimizer:
        model = ChannelModel(n_t=4, sigma_h=1.0, sigma_g=0.5)
        P = 4.0
        trace = optimize_allocation(model, P, OptimizerConfig(seed=seed))
        final = trace.final.as_array()
        opt_dev = float(np.max(np.abs(final - P / model.n_t)))
        opt_tol = 0.01 * P
        opt_ok = trace.converged and opt_dev <= opt_tol

    return VerifySuiteResult(
        checks=tuple(checks),
        optimizer_deviation=opt_dev,
        optimizer_tol=opt_tol,
        optimizer_ok=opt_ok,
    )

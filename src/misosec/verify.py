"""One-shot verification suite over the ordering machinery and the optimizer.

Runs randomized majorization, Laplace-transform order, Schur-concavity and
complete-monotonicity probes, the expectation-ordering lemma, a
deterministic check that the secrecy rate itself is Schur-concave
(R(d*) >= R(d) whenever d* is majorized by d, by Hamdi's MGF integral), and
one optimizer run that must land on the uniform allocation. Margins use the
convention "claim holds iff margin >= -1e-12"; Monte Carlo probes fold their
noise in as mean + 3 * std_error.

Every probe is array work. The pairs of one dimension are drawn by one
Dirichlet and one uniform call, and each pair probe evaluates them in one
call per dimension (and per sigma or ratio); the rate probe asks the MGF
evaluator for rates only, without the gradient. The complete-monotonicity
grid is one array evaluation of the closed form, and each lemma case costs
one log per draw.

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
    Witness,
    _cm_derivatives,
    _lt_gaps_grid,
    _majorization_margin,
    _random_majorization_pairs,
    verify_lemma_LT_implies_expectation,
)
from .rates import _mgf_rate

# _PAIRS random pairs: dimension drawn from _PAIR_DIMS, total power _PAIR_TOTAL
_PAIRS = 400
_PAIR_DIMS = (2, 3, 4, 8)
_PAIR_TOTAL = 4.0
# LT probe's s grid size, and draws per expectation-lemma case
_S_POINTS = 50
_LEMMA_SAMPLES = 200_000
# complete-monotonicity grid: log-spaced x in [1e-3, 1e3], orders 0.._CM_ORDERS
_CM_X_POINTS = 25
_CM_ORDERS = 10

# both entry-variance conventions are probed; ordering is invariant to the constant
_LT_SIGMAS = (1.0, np.sqrt(2.0))


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


def _in_order(witnesses: dict) -> list[Witness]:
    return [witnesses[key] for key in sorted(witnesses)]


def run_verify_suite(seed: int = 0, *, run_optimizer: bool = True) -> VerifySuiteResult:
    """Run every ordering probe and (optionally) the optimizer check.

    The probe sizes are fixed: _PAIRS random (d_star, d) pairs feed the pair
    probes, the LT probe runs on _S_POINTS log-spaced s and each lemma case
    on _LEMMA_SAMPLES draws. The seed's generator draws the pair dimensions,
    then each dimension's pairs in one batch (in _PAIR_DIMS order), then the
    Schur probe's s values. The optimizer runs OptimizerConfig(seed=seed)
    on the reference problem.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed % 2**63, 11)))
    # pair i has dimension dims[i]; the pairs of one dimension are drawn
    # together, in index order, one Dirichlet and one uniform call per dimension
    dims = rng.choice(_PAIR_DIMS, size=_PAIRS)
    pairs: dict[int, tuple[list[int], np.ndarray, np.ndarray]] = {}
    for n in _PAIR_DIMS:
        rows = np.flatnonzero(dims == n)
        pairs[n] = (rows.tolist(), *_random_majorization_pairs(n, _PAIR_TOTAL, rng, rows.size))
    s_draws = 10.0 ** rng.uniform(-3.0, 3.0, size=_PAIRS)
    s_grid = np.logspace(-3.0, 3.0, _S_POINTS + 1)[1:]  # half-open (1e-3, 1e3]
    s_grid_text = [f"{s:.6g}" for s in s_grid.tolist()]

    # each pair probe makes one array call per pair dimension (and per sigma
    # or ratio); its witnesses are keyed by (pair, sigma or ratio) and
    # reported in that order
    maj_w: dict[int, Witness] = {}
    lt_w: dict[tuple[int, int], Witness] = {}
    schur_w: dict[int, Witness] = {}
    rate_w: dict[tuple[int, int], Witness] = {}
    for rows, d_star, d in pairs.values():
        # majorization: every generated pair must satisfy d_star majorized by d,
        # with the margin being the worst prefix-sum gap
        for i, margin in zip(rows, _majorization_margin(d, d_star).tolist()):
            maj_w[i] = Witness(point=f"pair#{i} n={d.shape[1]}", margin=margin)
        # LT order across the whole s grid, both variance conventions
        for m, sigma in enumerate(_LT_SIGMAS):
            gaps = _lt_gaps_grid(d_star, d, float(sigma), s_grid)
            worst = np.argmin(gaps, axis=-1).tolist()
            where = f"sigma^2={float(sigma) ** 2:g} s="
            for i, j, margin in zip(rows, worst, np.min(gaps, axis=-1).tolist()):
                lt_w[i, m] = Witness(point=f"pair#{i} {where}{s_grid_text[j]}", margin=margin)
        # Schur concavity of S(d) = sum log2(1 + s d_k) at one random s per pair
        gaps = _lt_gaps_grid(d_star, d, 1.0, s_draws[rows, None])[:, 0]
        for i, s, margin in zip(rows, s_draws[rows].tolist(), gaps.tolist()):
            schur_w[i] = Witness(point=f"pair#{i} s={s:.6g}", margin=margin)
        # Schur concavity of the secrecy rate itself, R(d_star) >= R(d), exact to rounding
        for m, r in enumerate((0.5, 0.9)):
            gaps = _mgf_rate(d_star, 1.0, r * r)[0] - _mgf_rate(d, 1.0, r * r)[0]
            for i, margin in zip(rows, gaps.tolist()):
                rate_w[i, m] = Witness(point=f"pair#{i} sigma_g/sigma_h={r}", margin=margin)

    checks: list[tuple[str, OrderCheckReport]] = []
    grid = f"{_PAIRS} random pairs, dims {_PAIR_DIMS}, total {_PAIR_TOTAL}"
    checks.append(("majorization", OrderCheckReport(grid, _in_order(maj_w))))
    grid = f"{_PAIRS} pairs x {_S_POINTS} log-spaced s in (1e-3, 1e3], sigma^2 in {{1, 2}}"
    checks.append(("lt_order", OrderCheckReport(grid, _in_order(lt_w))))
    grid = f"{_PAIRS} pairs, one random s each, sigma^2=1"
    checks.append(("schur_concave", OrderCheckReport(grid, _in_order(schur_w))))

    # complete monotonicity sign pattern on the (a, x, n) grid, in one array call
    a_grid = (0.0, 0.1, 0.5, 0.9)
    x_grid = np.logspace(-3.0, 3.0, _CM_X_POINTS)
    x_grid_text = [f"{x:.6g}" for x in x_grid.tolist()]
    orders = np.arange(_CM_ORDERS + 1)
    signed = np.where(orders % 2, -1.0, 1.0) * _cm_derivatives(
        np.array(a_grid)[:, None, None], x_grid[:, None], orders
    )
    cm_witnesses = [
        Witness(point=f"a={a} x={x} n={n}", margin=margin)
        for a, by_x in zip(a_grid, signed.tolist())
        for x, by_n in zip(x_grid_text, by_x)
        for n, margin in enumerate(by_n)
    ]
    grid = f"a in {{0,0.1,0.5,0.9}}, {_CM_X_POINTS}-point log x grid, n <= {_CM_ORDERS}"
    checks.append(("complete_monotone", OrderCheckReport(grid, cm_witnesses)))

    grid = f"{_PAIRS} pairs, sigma_h=1, sigma_g in {{0.5, 0.9}}, MGF integral"
    checks.append(("secrecy_rate_schur", OrderCheckReport(grid, _in_order(rate_w))))

    # expectation-ordering lemma on canonical and random pairs (shared draws);
    # pair #0 leads the rows of its dimension
    _, d_stars, ds = pairs[int(dims[0])]
    d_star_r, d_r = d_stars[0], ds[0]
    lemma_cases = [
        ((_PAIR_TOTAL, 0.0), (_PAIR_TOTAL / 2, _PAIR_TOTAL / 2), 0.25),
        ((_PAIR_TOTAL, 0.0), (_PAIR_TOTAL / 2, _PAIR_TOTAL / 2), 0.0),
        (tuple(d_r), tuple(d_star_r), 0.5),
    ]
    lemma_witnesses = []
    for j, (d1, d2, a) in enumerate(lemma_cases):
        rep = verify_lemma_LT_implies_expectation(
            d1, d2, sigma=1.0, a=a, n_samples=_LEMMA_SAMPLES, seed=seed + j
        )
        lemma_witnesses.append(Witness(point=f"case#{j} a={a}", margin=rep.min_margin))
    grid = f"{len(lemma_cases)} pairs, {_LEMMA_SAMPLES} shared draws each"
    checks.append(("lemma_expectation", OrderCheckReport(grid, lemma_witnesses)))

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

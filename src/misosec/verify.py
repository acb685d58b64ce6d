"""One-shot verification suite over the ordering machinery and the optimizer.

Runs randomized majorization, Laplace-transform order, Schur-concavity and
complete-monotonicity probes, the expectation-ordering lemma, a
deterministic check that the secrecy rate itself is Schur-concave
(R(d*) >= R(d) whenever d* is majorized by d, by Hamdi's MGF integral), and
one optimizer run that must land on the uniform allocation. Margins use the
convention "claim holds iff margin >= -1e-12"; Monte Carlo probes fold their
noise in as mean + 3 * std_error.

Exit code semantics (mirrored by the CLI): 0 all margins hold and the
optimizer reached uniform; 1 some margin or the optimizer tolerance failed.
Invalid sizes (pairs or s_points below 1) raise ValueError, which the CLI
maps to exit code 2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .optimize import OptimizerConfig, optimize_allocation
from .ordering import (
    OrderCheckReport,
    Witness,
    _lt_gaps_grid,
    _majorization_margin,
    cm_derivative,
    random_majorization_pair,
    verify_lemma_LT_implies_expectation,
)
from .rates import _mgf_rate

# random pairs: dimension drawn from _PAIR_DIMS, total power _PAIR_TOTAL
_PAIR_DIMS = (2, 3, 4, 8)
_PAIR_TOTAL = 4.0
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


def _s_grid(points: int) -> np.ndarray:
    # half-open (1e-3, 1e3]: drop the left endpoint of an extended log grid
    return np.logspace(-3.0, 3.0, points + 1)[1:]


def run_verify_suite(
    seed: int = 0,
    *,
    pairs: int = 400,
    s_points: int = 50,
    lemma_samples: int = 200_000,
    run_optimizer: bool = True,
) -> VerifySuiteResult:
    """Run every ordering probe and (optionally) the optimizer check.

    pairs random (d_star, d) pairs feed the pair probes, s_points sets the LT
    probe's s grid and lemma_samples the draws per lemma case; the
    complete-monotonicity grid and the pair dimensions and total are fixed.
    The optimizer runs OptimizerConfig(seed=seed) on the reference problem.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    if s_points < 1:
        raise ValueError(f"s_points must be >= 1, got {s_points}")
    rng = np.random.default_rng(np.random.SeedSequence((seed % 2**63, 11)))
    pair_list: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(pairs):
        n = int(rng.choice(_PAIR_DIMS))
        pair_list.append(random_majorization_pair(n, _PAIR_TOTAL, rng))
    checks: list[tuple[str, OrderCheckReport]] = []

    # majorization: every generated pair must satisfy d_star majorized by d,
    # with the margin being the worst prefix-sum gap
    maj_witnesses = [
        Witness(point=f"pair#{i} n={d.size}", margin=_majorization_margin(d, d_star))
        for i, (d_star, d) in enumerate(pair_list)
    ]
    grid = f"{pairs} random pairs, dims {_PAIR_DIMS}, total {_PAIR_TOTAL}"
    checks.append(("majorization", OrderCheckReport(grid, maj_witnesses)))

    # LT order across the whole s grid, both variance conventions
    s_grid = _s_grid(s_points)
    lt_witnesses = []
    for i, (d_star, d) in enumerate(pair_list):
        for sigma in _LT_SIGMAS:
            gaps = _lt_gaps_grid(d_star, d, float(sigma), s_grid)
            j = int(np.argmin(gaps))
            lt_witnesses.append(
                Witness(
                    point=f"pair#{i} sigma^2={float(sigma) ** 2:g} s={s_grid[j]:.6g}",
                    margin=float(gaps[j]),
                )
            )
    grid = f"{pairs} pairs x {s_points} log-spaced s in (1e-3, 1e3], sigma^2 in {{1, 2}}"
    checks.append(("lt_order", OrderCheckReport(grid, lt_witnesses)))

    # Schur concavity of S(d) = sum log2(1 + s d_k) at one random s per pair
    schur_witnesses = []
    for i, (d_star, d) in enumerate(pair_list):
        s = float(10.0 ** rng.uniform(-3.0, 3.0))
        gap = _lt_gaps_grid(d_star, d, 1.0, np.array([s]))[0]
        schur_witnesses.append(Witness(point=f"pair#{i} s={s:.6g}", margin=float(gap)))
    grid = f"{pairs} pairs, one random s each, sigma^2=1"
    checks.append(("schur_concave", OrderCheckReport(grid, schur_witnesses)))

    # complete monotonicity sign pattern on the (a, x, n) grid
    cm_witnesses = []
    x_grid = np.logspace(-3.0, 3.0, _CM_X_POINTS)
    for a in (0.0, 0.1, 0.5, 0.9):
        for x in x_grid:
            for n in range(_CM_ORDERS + 1):
                signed = (-1.0) ** n * cm_derivative(a, float(x), n)
                cm_witnesses.append(
                    Witness(point=f"a={a} x={x:.6g} n={n}", margin=signed)
                )
    grid = f"a in {{0,0.1,0.5,0.9}}, {_CM_X_POINTS}-point log x grid, n <= {_CM_ORDERS}"
    checks.append(("complete_monotone", OrderCheckReport(grid, cm_witnesses)))

    # Schur concavity of the secrecy rate itself, R(d_star) >= R(d), exact to rounding
    rate_witnesses = [
        Witness(
            point=f"pair#{i} sigma_g/sigma_h={r}",
            margin=_mgf_rate(d_star, 1.0, r * r)[0] - _mgf_rate(d, 1.0, r * r)[0],
        )
        for i, (d_star, d) in enumerate(pair_list)
        for r in (0.5, 0.9)
    ]
    grid = f"{pairs} pairs, sigma_h=1, sigma_g in {{0.5, 0.9}}, MGF integral"
    checks.append(("secrecy_rate_schur", OrderCheckReport(grid, rate_witnesses)))

    # expectation-ordering lemma on canonical and random pairs (shared draws)
    d_star_r, d_r = pair_list[0]
    lemma_cases = [
        ((_PAIR_TOTAL, 0.0), (_PAIR_TOTAL / 2, _PAIR_TOTAL / 2), 0.25),
        ((_PAIR_TOTAL, 0.0), (_PAIR_TOTAL / 2, _PAIR_TOTAL / 2), 0.0),
        (tuple(d_r), tuple(d_star_r), 0.5),
    ]
    lemma_witnesses = []
    for j, (d1, d2, a) in enumerate(lemma_cases):
        rep = verify_lemma_LT_implies_expectation(
            d1, d2, sigma=1.0, a=a, n_samples=lemma_samples, seed=seed + j
        )
        lemma_witnesses.append(Witness(point=f"case#{j} a={a}", margin=rep.min_margin))
    grid = f"{len(lemma_cases)} pairs, {lemma_samples} shared draws each"
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

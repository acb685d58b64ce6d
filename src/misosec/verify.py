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
Precondition violations (for example an injected pair with unequal sums)
raise ValueError, which the CLI maps to exit code 2.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelModel
from .optimize import OptimizerConfig, optimize_allocation
from .ordering import (
    OrderCheckReport,
    OrderRelation,
    Witness,
    _lt_gaps_grid,
    cm_derivative,
    majorizes,
    random_majorization_pair,
    verify_lemma_LT_implies_expectation,
)
from .rates import _mgf_rate

_MARGIN_SLACK = 1e-12

# both entry-variance conventions are probed; ordering is invariant to the constant
_LT_SIGMAS = (1.0, np.sqrt(2.0))


@dataclass(frozen=True)
class VerifySuiteResult:
    """Named probe reports plus the optimizer-to-uniform outcome."""

    checks: tuple[tuple[str, OrderCheckReport], ...]
    optimizer_deviation: float
    optimizer_tol: float
    exit_code: int

    @property
    def passed(self) -> bool:
        return self.exit_code == 0


def _s_grid(points: int) -> np.ndarray:
    # half-open (1e-3, 1e3]: drop the left endpoint of an extended log grid
    return np.logspace(-3.0, 3.0, points + 1)[1:]


def _majorization_margin(d_star: np.ndarray, d: np.ndarray) -> float:
    px = np.cumsum(np.sort(d)[::-1])
    py = np.cumsum(np.sort(d_star)[::-1])
    return float(np.min(px - py))


def run_verify_suite(
    seed: int = 0,
    *,
    pairs: int = 400,
    s_points: int = 50,
    x_points: int = 25,
    max_order: int = 10,
    lemma_samples: int = 200_000,
    dims: Sequence[int] = (2, 3, 4, 8),
    total_power: float = 4.0,
    run_optimizer: bool = True,
    optimizer_config: OptimizerConfig | None = None,
    extra_pairs: Sequence[tuple[Sequence[float], Sequence[float]]] | None = None,
) -> VerifySuiteResult:
    """Run every ordering probe and (optionally) the optimizer check.

    extra_pairs lets callers inject (d_star, d) pairs on top of the random
    ones; pairs violating the equal-sums precondition raise ValueError.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed % 2**63, 11)))
    dims = tuple(int(n) for n in dims)

    pair_list: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(pairs):
        n = int(rng.choice(dims))
        pair_list.append(random_majorization_pair(n, total_power, rng))
    if extra_pairs is not None:
        pair_list.extend(
            (np.asarray(ds, dtype=np.float64), np.asarray(dv, dtype=np.float64))
            for ds, dv in pair_list_from(extra_pairs)
        )

    checks: list[tuple[str, OrderCheckReport]] = []

    # majorization: every generated pair must satisfy d_star majorized by d,
    # with the margin being the worst prefix-sum gap
    maj_witnesses = [
        Witness(point=f"pair#{i} n={d.size}", margin=_majorization_margin(d_star, d))
        for i, (d_star, d) in enumerate(pair_list)
    ]
    checks.append(
        (
            "majorization",
            OrderCheckReport.from_witnesses(
                OrderRelation.MAJORIZATION,
                f"{len(pair_list)} random pairs, dims {dims}, total {total_power}",
                maj_witnesses,
            ),
        )
    )

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
    checks.append(
        (
            "lt_order",
            OrderCheckReport.from_witnesses(
                OrderRelation.LT_ORDER,
                f"{len(pair_list)} pairs x {s_points} log-spaced s in (1e-3, 1e3], "
                f"sigma^2 in {{1, 2}}",
                lt_witnesses,
            ),
        )
    )

    # Schur concavity of S(d) = sum log2(1 + s d_k) at one random s per pair
    schur_witnesses = []
    for i, (d_star, d) in enumerate(pair_list):
        s = float(10.0 ** rng.uniform(-3.0, 3.0))
        gap = _lt_gaps_grid(d_star, d, 1.0, np.array([s]))[0]
        schur_witnesses.append(Witness(point=f"pair#{i} s={s:.6g}", margin=float(gap)))
    checks.append(
        (
            "schur_concave",
            OrderCheckReport.from_witnesses(
                OrderRelation.SCHUR_CONCAVE,
                f"{len(pair_list)} pairs, one random s each, sigma^2=1",
                schur_witnesses,
            ),
        )
    )

    # complete monotonicity sign pattern on the (a, x, n) grid
    cm_witnesses = []
    x_grid = np.logspace(-3.0, 3.0, x_points)
    for a in (0.0, 0.1, 0.5, 0.9):
        for x in x_grid:
            for n in range(max_order + 1):
                signed = (-1.0) ** n * cm_derivative(a, float(x), n)
                cm_witnesses.append(
                    Witness(point=f"a={a} x={x:.6g} n={n}", margin=signed)
                )
    checks.append(
        (
            "complete_monotone",
            OrderCheckReport.from_witnesses(
                OrderRelation.COMPLETE_MONOTONE,
                f"a in {{0,0.1,0.5,0.9}}, {x_points}-point log x grid, n <= {max_order}",
                cm_witnesses,
            ),
        )
    )

    # Schur concavity of the secrecy rate itself, R(d_star) >= R(d), exact to rounding
    rate_witnesses = [
        Witness(
            point=f"pair#{i} sigma_g/sigma_h={r}",
            margin=_mgf_rate(d_star, 1.0, r * r)[0] - _mgf_rate(d, 1.0, r * r)[0],
        )
        for i, (d_star, d) in enumerate(pair_list)
        for r in (0.5, 0.9)
    ]
    checks.append(
        (
            "secrecy_rate_schur",
            OrderCheckReport.from_witnesses(
                OrderRelation.SCHUR_CONCAVE,
                f"{len(pair_list)} pairs, sigma_h=1, sigma_g in {{0.5, 0.9}}, MGF integral",
                rate_witnesses,
            ),
        )
    )

    # expectation-ordering lemma on canonical and random pairs (shared draws)
    lemma_cases = [
        ((total_power, 0.0), (total_power / 2, total_power / 2), 0.25),
        ((total_power, 0.0), (total_power / 2, total_power / 2), 0.0),
    ]
    d_star_r, d_r = pair_list[0] if pair_list else random_majorization_pair(4, total_power, rng)
    lemma_cases.append((tuple(d_r), tuple(d_star_r), 0.5))
    lemma_witnesses = []
    for j, (d1, d2, a) in enumerate(lemma_cases):
        rep = verify_lemma_LT_implies_expectation(
            d1, d2, sigma=1.0, a=a, n_samples=lemma_samples, seed=seed + j
        )
        lemma_witnesses.append(Witness(point=f"case#{j} a={a}", margin=rep.min_margin))
    checks.append(
        (
            "lemma_expectation",
            OrderCheckReport.from_witnesses(
                OrderRelation.LT_ORDER,
                f"{len(lemma_cases)} pairs, {lemma_samples} shared draws each",
                lemma_witnesses,
            ),
        )
    )

    # optimizer-to-uniform check on the reference problem
    opt_tol = 0.0
    opt_dev = float("nan")
    opt_ok = True
    if run_optimizer:
        model = ChannelModel(n_t=4, sigma_h=1.0, sigma_g=0.5)
        P = 4.0
        cfg = optimizer_config or OptimizerConfig(seed=seed)
        trace = optimize_allocation(model, P, cfg)
        final = trace.final.as_array()
        opt_dev = float(np.max(np.abs(final - P / model.n_t)))
        opt_tol = 0.01 * P
        opt_ok = trace.converged and opt_dev <= opt_tol

    margins_ok = all(rep.min_margin >= -_MARGIN_SLACK for _, rep in checks)
    exit_code = 0 if (margins_ok and opt_ok) else 1
    return VerifySuiteResult(
        checks=tuple(checks),
        optimizer_deviation=opt_dev,
        optimizer_tol=opt_tol,
        exit_code=exit_code,
    )


def pair_list_from(
    extra: Sequence[tuple[Sequence[float], Sequence[float]]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Validate injected pairs the same way the random generator guarantees:
    equal sums and d_star majorized by d (ValueError otherwise)."""
    out = []
    for d_star, d in extra:
        ds = np.asarray(d_star, dtype=np.float64)
        dv = np.asarray(d, dtype=np.float64)
        if not majorizes(dv, ds):
            raise ValueError(f"injected pair violates majorization: {list(ds)} vs {list(dv)}")
        out.append((ds, dv))
    return out

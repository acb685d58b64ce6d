"""Stochastic-ordering machinery: majorization, Laplace-transform order,
complete monotonicity, Schur concavity.

These are the ingredients of the uniform-allocation optimality argument:
the uniform vector is majorized by every allocation of equal total power;
majorization implies Laplace-transform dominance of the quadratic forms
(a product-of-linear-factors MGF comparison); and complete monotonicity of
psi(x) = d/dx [ln(a+x) - ln(1+x)] turns that dominance into an expectation
inequality for the secrecy integrand.

Each public probe checks one point. The verify suite runs the same closed
forms on whole arrays through the private batched forms: _lt_gaps_grid
(lt_order_gap over a grid of s and a batch of pairs), _cm_derivatives
(cm_derivative over a grid of a, x and n) and _random_majorization_pairs
(a batch of random_majorization_pair draws). Like rates, the probes reject a
sigma or s whose product with the allocation leaves no headroom.

All operations are pure, stateless and safe for concurrent use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from . import _kernels
from .channel import STREAM_GENERIC, stream_moments
from .rates import _HEADROOM, _check_mc_samples, _sum_last

# factorials stay exactly representable in float64 up to 20!
MAX_DERIVATIVE_ORDER = 20
_FACTORIALS = np.array([float(math.factorial(k)) for k in range(MAX_DERIVATIVE_ORDER + 1)])

_SUM_RTOL = 1e-9
_MARGIN_SLACK = 1e-12


@dataclass(frozen=True)
class Witness:
    """One probe point and its margin (>= 0 means the claim holds there)."""

    point: str
    margin: float


@dataclass(frozen=True)
class OrderCheckReport:
    """Outcome of an ordering probe: the grid it ran on and one witness per point.

    min_margin is the most-violating witness margin; the claim holds when
    min_margin >= -1e-12 (floating-point slack only).
    """

    grid: str
    witnesses: tuple[Witness, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        if not self.witnesses:
            raise ValueError("report requires at least one witness")

    @property
    def worst(self) -> Witness:
        return min(self.witnesses, key=lambda w: w.margin)

    @property
    def min_margin(self) -> float:
        return self.worst.margin

    @property
    def holds(self) -> bool:
        return self.min_margin >= -_MARGIN_SLACK


def _check_equal_sums(x: NDArray, y: NDArray) -> float:
    sx = float(x.sum())
    sy = float(y.sum())
    scale = max(abs(sx), abs(sy), 1.0)
    if abs(sx - sy) > _SUM_RTOL * scale:
        raise ValueError(f"sums differ: {sx} vs {sy}")
    return scale


def majorizes(x: Sequence[float], y: Sequence[float]) -> bool:
    """True iff x majorizes y: sorted-descending prefix sums of x dominate y's.

    Requires equal lengths and equal sums (1e-9 relative). The uniform vector
    is majorized by every vector of the same total.
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise ValueError(f"length mismatch: {xv.shape} vs {yv.shape}")
    scale = _check_equal_sums(xv, yv)
    return bool(_majorization_margin(xv, yv) >= -_MARGIN_SLACK * scale)


def _majorization_margin(x: NDArray, y: NDArray) -> NDArray[np.float64]:
    """Worst gap between the sorted-descending prefix sums of x and of y,
    per row along the last axis (leading axes broadcast)."""
    px = np.cumsum(np.sort(x)[..., ::-1], axis=-1)
    py = np.cumsum(np.sort(y)[..., ::-1], axis=-1)
    return np.min(px - py, axis=-1, initial=np.inf)


def _check_scale(sigma: float, s: float, d: NDArray) -> None:
    """Reject a sigma and s whose product s sigma^2 sum(d) could overflow.

    The headroom rule of rates: _HEADROOM * s * sigma^2 * max(sum(d), 1) must
    be finite. A probe forms s sigma^2 d_k; the lemma (s = 1) scales
    Exponential(1) draws, which stay below 45, by sigma^2 and weights them by d.
    """
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"s must be finite and positive, got {s}")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    total = float(np.sum(d))
    if not math.isfinite(_HEADROOM * s * (sigma * sigma) * max(total, 1.0)):
        raise ValueError(
            f"s * sigma^2 * max(sum(d), 1) must stay finite with headroom {_HEADROOM:g}, "
            f"got s={s}, sigma={sigma}, sum(d)={total}"
        )


def mgf_quadratic_form(d: Sequence[float], sigma: float, s: float) -> float:
    """E[exp(-s g^H D g)] = prod_k 1/(1 + s d_k sigma^2) for g entries of scale sigma.

    Strictly decreasing in s, equal to 1 in the s -> 0+ limit. Rejects a
    sigma and s whose product with the allocation could overflow.
    """
    dv = np.asarray(d, dtype=np.float64)
    if np.any(dv < 0):
        raise ValueError(f"allocation entries must be nonnegative, got {list(dv)}")
    _check_scale(sigma, s, dv)
    return float(np.prod(1.0 / (1.0 + s * sigma * sigma * dv)))


def lt_order_gap(
    d_star: Sequence[float], d: Sequence[float], sigma: float, s: float
) -> float:
    """log2 MGF ratio: sum_k log2(1 + s d*_k sigma^2) - sum_k log2(1 + s d_k sigma^2).

    Equals log2(mgf(d) / mgf(d_star)). Nonnegative whenever d_star is majorized
    by d (Schur concavity of the log-sum), which is the Laplace-transform
    dominance g^H D g >=_LT g^H D* g in log form. Rejects a sigma and s whose
    product with the allocation could overflow.
    """
    ds = np.asarray(d_star, dtype=np.float64)
    dv = np.asarray(d, dtype=np.float64)
    if np.any(ds < 0) or np.any(dv < 0):
        raise ValueError("allocation entries must be nonnegative")
    _check_scale(sigma, s, dv)
    _check_equal_sums(ds, dv)
    return float(_lt_gaps_grid(ds, dv, sigma, np.array([s]))[0])


def _lt_gaps_grid(
    d_star: NDArray, d: NDArray, sigma: float, s_grid: NDArray
) -> NDArray[np.float64]:
    """Vectorized lt_order_gap over a whole s grid (validation done by caller).

    Leading axes of the (..., n) rows broadcast against s_grid's: (k, n) rows
    give (k, S) gaps on an (S,) grid and one gap per row on a (k, 1) column.
    """
    c = (sigma * sigma) * s_grid[..., None]
    return _sum_last(np.log2(1.0 + c * d_star[..., None, :])) - _sum_last(
        np.log2(1.0 + c * d[..., None, :])
    )


def cm_derivative(a: float, x: float, n: int) -> float:
    """n-th derivative of psi(x) = d/dx [ln(a+x) - ln(1+x)] in closed form.

    psi^(n)(x) = (-1)^n n! [ (a+x)^-(n+1) - (1+x)^-(n+1) ], so
    (-1)^n psi^(n)(x) >= 0 for 0 <= a < 1: psi is completely monotone.
    One point of _cm_derivatives.
    """
    if not 0 <= a < 1:
        raise ValueError(f"a must lie in [0, 1), got {a}")
    if not x > 0:
        raise ValueError(f"x must be positive, got {x}")
    if n < 0 or int(n) != n:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    if n > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"n must be <= {MAX_DERIVATIVE_ORDER} (n! must stay exact), got {n}")
    return float(_cm_derivatives(a, x, int(n)))


def _cm_derivatives(a: ArrayLike, x: ArrayLike, n: ArrayLike) -> NDArray[np.float64]:
    """cm_derivative over broadcast arrays of a, x and integer orders n
    (validation done by caller)."""
    n = np.asarray(n)
    e = -(n + 1.0)
    return np.where(n % 2, -1.0, 1.0) * _FACTORIALS[n] * ((a + x) ** e - (1.0 + x) ** e)


def random_majorization_pair(
    n: int, total: float, rng: np.random.Generator
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Draw (d_star, d) with d_star majorized by d and equal sums.

    d is uniform on the simplex of sum `total`; d_star mixes d toward the
    uniform point with a random weight, a doubly-stochastic average, so
    d_star precedes d by construction. A batch of one of
    _random_majorization_pairs: the same draws, with the same bits.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (math.isfinite(total) and total > 0):
        raise ValueError(f"total must be finite and positive, got {total}")
    d_star, d = _random_majorization_pairs(n, total, rng, 1)
    return d_star[0], d[0]


def _random_majorization_pairs(
    n: int, total: float, rng: np.random.Generator, k: int
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """k pairs of random_majorization_pair as (k, n) rows of d_star and d
    (validation done by caller).

    Draws the k simplex points with one Dirichlet call and the k weights with
    one uniform call, so a batch of one takes the same draws, and gives the
    same bits, as one random_majorization_pair call.
    """
    d = total * rng.dirichlet(np.ones(n), size=k)
    lam = rng.uniform(size=(k, 1))
    d_star = lam * d + (1.0 - lam) * (total / n)
    return d_star, d


def verify_lemma_LT_implies_expectation(
    d1: Sequence[float],
    d2: Sequence[float],
    sigma: float,
    a: float,
    n_samples: int,
    seed: int,
) -> OrderCheckReport:
    """End-to-end expectation ordering: d2 majorized by d1 implies
    E[f(g^H D1 g)] <= E[f(g^H D2 g)] for f(x) = log2(a+x) - log2(1+x).

    Both quadratic forms are evaluated on the same g draws, so the margin
    mean + 3 se of the per-sample difference f(q2) - f(q1) is tight; it is
    exactly 0 (with zero std error) when d1 == d2. Each difference is one
    log1p (_kernels.lemma_difference). Rejects a sigma whose draws could
    overflow, by the headroom rule of rates.
    """
    dv1 = np.asarray(d1, dtype=np.float64)
    dv2 = np.asarray(d2, dtype=np.float64)
    if not 0 <= a < 1:
        raise ValueError(f"a must lie in [0, 1), got {a}")
    _check_scale(sigma, 1.0, dv1)
    _check_mc_samples(n_samples)
    if not majorizes(dv1, dv2):
        raise ValueError("precondition failed: d2 must be majorized by d1")

    ((mean, se),) = stream_moments(
        lambda abs2: _kernels.lemma_difference(abs2, dv1, dv2, a),
        ((sigma, STREAM_GENERIC),), dv1.shape[0], n_samples, seed,
    )
    margin = mean + 3.0 * se
    witness = Witness(
        point=f"d1={list(dv1)}, d2={list(dv2)}, mean={mean}, se={se}",
        margin=margin,
    )
    return OrderCheckReport(
        grid=f"n_samples={n_samples}, sigma={sigma}, a={a}, seed={seed}",
        witnesses=(witness,),
    )

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
(cm_derivative over a grid of a, x and n), _random_majorization_pairs
(a batch of random_majorization_pair draws) and _lemma_exact (the
expectation lemma's exact difference at several a, by the MGF and Frullani
integrals of rates). _lemma_margins, the Monte Carlo lemma at several a on
one stream of draws, is its sampled cross-check. The probes take 1-D
allocations of finite, nonnegative entries (majorizes takes any finite
vectors), pairs of one length and sum, and a sigma and s with the headroom
of rates._check_headroom.

An OrderCheckReport holds its margins as one array and labels a point only
when it is read, so the suite's reports of up to 1100 points cost no more
than their arrays until a caller asks for their witnesses.

All operations are pure, stateless and safe for concurrent use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from . import _kernels, channel
from .channel import STREAM_GENERIC, _check_count
from .rates import (
    _antenna_first, _check_headroom, _check_mc_samples, _log_gap, _mgf_rate, _sum_antennas,
)

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


@dataclass(frozen=True, init=False, eq=False, repr=False)
class OrderCheckReport:
    """Outcome of an ordering probe: the grid it ran on and one margin per point.

    The margins are held as one read-only 1-D float64 array, and point i is
    labelled on demand, so a report of thousands of points builds no Witness
    until witnesses or worst is read. OrderCheckReport(grid, witnesses) builds
    one from Witness objects; the verify suite builds its reports straight
    from its margin arrays.

    worst is the first witness of least margin, and a NaN margin anywhere is
    the worst; min_margin is its margin. The claim holds when
    min_margin >= -1e-12 (floating-point slack only), so never on a NaN.
    """

    grid: str
    _margins: NDArray[np.float64]
    _label: Callable[[int], str]

    def __init__(self, grid: str, witnesses: Iterable[Witness]) -> None:
        ws = tuple(witnesses)
        self._set(grid, [w.margin for w in ws], tuple(w.point for w in ws).__getitem__)

    @classmethod
    def _of_margins(
        cls, grid: str, margins: ArrayLike, label: Callable[[int], str]
    ) -> OrderCheckReport:
        """A report of the margins, flattened in C order, with label(i) naming point i."""
        report = cls.__new__(cls)
        report._set(grid, margins, label)
        return report

    def _set(self, grid: str, margins: ArrayLike, label: Callable[[int], str]) -> None:
        m = np.array(margins, dtype=np.float64).reshape(-1)
        if not m.size:
            raise ValueError("report requires at least one witness")
        m.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "_margins", m)
        object.__setattr__(self, "_label", label)

    def _witness(self, i: int) -> Witness:
        return Witness(point=self._label(i), margin=float(self._margins[i]))

    @property
    def witnesses(self) -> tuple[Witness, ...]:
        return tuple(self._witness(i) for i in range(self._margins.size))

    @property
    def worst(self) -> Witness:
        # argmin returns the first minimum, or the first NaN if there is one
        return self._witness(int(np.argmin(self._margins)))

    @property
    def min_margin(self) -> float:
        return float(self._margins[np.argmin(self._margins)])

    @property
    def holds(self) -> bool:
        return self.min_margin >= -_MARGIN_SLACK

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderCheckReport):
            return NotImplemented
        return (self.grid, self.witnesses) == (other.grid, other.witnesses)

    def __hash__(self) -> int:
        return hash((self.grid, self.witnesses))

    def __repr__(self) -> str:
        return f"OrderCheckReport(grid={self.grid!r}, witnesses={self.witnesses!r})"


def _allocation(d: Sequence[float]) -> NDArray[np.float64]:
    """d as a 1-D float array, rejected unless nonempty with finite, nonnegative entries."""
    dv = np.asarray(d, dtype=np.float64)
    if dv.ndim != 1 or dv.size == 0 or not np.all(np.isfinite(dv)) or np.any(dv < 0):
        raise ValueError(
            f"allocation must be 1-D, nonempty, finite and nonnegative, got {dv.tolist()}"
        )
    return dv


def _check_pair(x: NDArray, y: NDArray) -> float:
    """Reject x, y unless 1-D, finite, of one length and of equal sums; return the sums' scale."""
    if x.ndim != 1 or x.shape != y.shape or not np.isfinite((x, y)).all():
        raise ValueError(f"need finite 1-D vectors of one length, got {x.tolist()}, {y.tolist()}")
    sx = float(x.sum())
    sy = float(y.sum())
    scale = max(abs(sx), abs(sy), 1.0)
    if abs(sx - sy) > _SUM_RTOL * scale:
        raise ValueError(f"sums differ: {sx} vs {sy}")
    return scale


def majorizes(x: Sequence[float], y: Sequence[float]) -> bool:
    """True iff x majorizes y: sorted-descending prefix sums of x dominate y's.

    Requires finite entries, equal lengths and equal sums (1e-9 relative). The
    uniform vector is majorized by every vector of the same total.
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    scale = _check_pair(xv, yv)
    return bool(_majorization_margin(xv, yv) >= -_MARGIN_SLACK * scale)


def _majorization_margin(x: NDArray, y: NDArray) -> NDArray[np.float64]:
    """Worst gap between the sorted-descending prefix sums of x and of y,
    per row along the last axis (leading axes broadcast)."""
    px = np.cumsum(np.sort(x)[..., ::-1], axis=-1)
    py = np.cumsum(np.sort(y)[..., ::-1], axis=-1)
    return np.min(px - py, axis=-1, initial=np.inf)


def _check_scale(sigma: float, s: float, d: NDArray) -> None:
    """Reject an s that is not finite and positive, and a sigma and s without the
    headroom of rates at scale s * max(sum(d), 1): a probe forms s sigma^2 d_k; the
    lemma (s = 1) weights by d Exponential(1) draws below 36.8, scaled by sigma^2."""
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"s must be finite and positive, got {s}")
    _check_headroom(s * max(float(np.sum(d)), 1.0), sigma)


def mgf_quadratic_form(d: Sequence[float], sigma: float, s: float) -> float:
    """E[exp(-s g^H D g)] = prod_k 1/(1 + s d_k sigma^2) for g entries of scale sigma.

    Strictly decreasing in s, equal to 1 in the s -> 0+ limit. Rejects a
    sigma and s whose product with the allocation could overflow.
    """
    dv = _allocation(d)
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
    ds = _allocation(d_star)
    dv = _allocation(d)
    _check_scale(sigma, s, dv)
    _check_pair(ds, dv)
    return float(_lt_gaps_grid(ds, dv, sigma, np.array([s]))[0])


def _lt_gaps_grid(
    d_star: NDArray, d: NDArray, sigma: float, s_grid: NDArray
) -> NDArray[np.float64]:
    """Vectorized lt_order_gap over a whole s grid (validation done by caller).

    d_star and d have one shape, and the leading axes of their (..., n) rows
    broadcast against those of s_grid, which has at most as many axes: (k, n)
    rows give (k, S) gaps on an (S,) grid and one gap per row on a (k, 1)
    column.

    The arrays are antenna-first: both sides' log2 terms are one C-contiguous
    (n, 2, ..., S) block, so each elementwise step and each add of the antenna
    sum runs over long contiguous slabs. rates._sum_antennas adds the slabs in
    numpy's pairwise order, so the bits are those of np.sum over the last axis
    of a (..., S, n) block.
    """
    # x[k, 0] = c d*_k and x[k, 1] = c d_k: both sides in one block
    x = _antenna_first(np.array((d_star, d)), (sigma * sigma) * s_grid)
    x += 1.0
    log_star, log_d = _sum_antennas(np.log2(x, out=x))
    return log_star - log_d


def cm_derivative(a: float, x: float, n: int) -> float:
    """n-th derivative of psi(x) = d/dx [ln(a+x) - ln(1+x)] in closed form.

    psi^(n)(x) = (-1)^n n! [ (a+x)^-(n+1) - (1+x)^-(n+1) ], so
    (-1)^n psi^(n)(x) >= 0 for 0 <= a < 1: psi is completely monotone.
    One point of _cm_derivatives. Rejects an x so small that the value, at
    most n! (a+x)^-(n+1) in size, overflows float64.
    """
    if not 0 <= a < 1:
        raise ValueError(f"a must lie in [0, 1), got {a}")
    if not x > 0:
        raise ValueError(f"x must be positive, got {x}")
    _check_count(n, "n", 0)
    if n > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"n must be <= {MAX_DERIVATIVE_ORDER} (n! must stay exact), got {n}")
    # the recurrence's terms grow only while a + x < 1, and then no faster
    # than the result, so a step overflows only if the result does; that
    # overflow becomes the ValueError below rather than a RuntimeWarning
    with np.errstate(over="ignore"):
        value = float(_cm_derivatives(a, x, int(n)))
    if not math.isfinite(value):
        raise ValueError(f"x={x} is too small: n! (a+x)^-(n+1) overflows float64 at a={a}, n={n}")
    return value


def _cm_derivatives(a: ArrayLike, x: ArrayLike, n: ArrayLike) -> NDArray[np.float64]:
    """cm_derivative over broadcast arrays of a, x and integer orders n
    (validation done by caller).

    psi^(n)(x) = (-1)^n n! D_{n+1} with D_m = u^m - v^m, u = 1/(a+x) and
    v = 1/(1+x). The two powers nearly cancel as a -> 1 or x grows, so their
    difference would lose relative accuracy. Since u - v = (1-a) u v, the
    recurrence D_1 = (1-a) u v, D_{m+1} = u D_m + (1-a) u v^{m+1} forms every
    D_m from positive terms only, which keeps it to a few ulps.
    """
    a, x, n = np.asarray(a, dtype=np.float64), np.asarray(x, dtype=np.float64), np.asarray(n)
    u = 1.0 / (a + x)
    v = 1.0 / (1.0 + x)
    term = (1.0 - a) * u * v  # (1-a) u v^{m+1}, here m = 0
    d = term  # D_{m+1}
    out = np.zeros(np.broadcast_shapes(d.shape, n.shape))
    for m in range(int(np.max(n)) + 1):
        if m:
            term = term * v
            d = u * d + term
        out = np.where(n == m, d, out)
    return np.where(n % 2, -1.0, 1.0) * _FACTORIALS[n] * out


def random_majorization_pair(
    n: int, total: float, rng: np.random.Generator
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Draw (d_star, d) with d_star majorized by d and equal sums.

    d is uniform on the simplex of sum `total`; d_star mixes d toward the
    uniform point with a random weight, a doubly-stochastic average, so
    d_star precedes d by construction. A batch of one of
    _random_majorization_pairs: the same draws, with the same bits.
    """
    _check_count(n, "n", 1)
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
    overflow, by the headroom rule of rates. A batch of one of _lemma_margins.
    """
    ((margin, mean, se),) = _lemma_margins(d1, d2, sigma, (a,), n_samples, seed)
    witness = Witness(
        point=f"d1={list(_allocation(d1))}, d2={list(_allocation(d2))}, mean={mean}, se={se}",
        margin=margin,
    )
    return OrderCheckReport(
        grid=f"n_samples={n_samples}, sigma={sigma}, a={a}, seed={seed}",
        witnesses=(witness,),
    )


def _lemma_margins(
    d1: Sequence[float],
    d2: Sequence[float],
    sigma: float,
    a_values: Sequence[float],
    n_samples: int,
    seed: int,
) -> list[tuple[float, float, float]]:
    """(margin, mean, se) of verify_lemma_LT_implies_expectation for each a in
    a_values, all on one stream of draws.

    Each chunk's draw and its two quadratic forms serve every a, and each a's
    lemma_difference is reduced on its own, with the bits of a batch of one.
    """
    chunk = _lemma_chunks(d1, d2, sigma, a_values, n_samples, seed)
    (moments,) = channel.stream_moments((chunk,), n_samples)
    return [(mean + 3.0 * se, mean, se) for mean, se in moments]


def _lemma_chunks(
    d1: Sequence[float], d2: Sequence[float], sigma: float, a_values: Sequence[float],
    n_samples: int, seed: int,
) -> channel._ChunkFn:
    """The chunk fn of _lemma_margins, after its checks: one lemma_difference
    output per a in a_values, whose margin is its mean + 3 se."""
    dv1 = _allocation(d1)
    dv2 = _allocation(d2)
    for a in a_values:
        if not 0 <= a < 1:
            raise ValueError(f"a must lie in [0, 1), got {a}")
    _check_scale(sigma, 1.0, dv1)
    _check_mc_samples(n_samples)
    if not majorizes(dv1, dv2):
        raise ValueError("precondition failed: d2 must be majorized by d1")

    def chunk(index: int, rows: int) -> Iterator[NDArray[np.float64]]:
        abs2 = channel._draw_abs2(sigma, dv1.shape[0], rows, seed, STREAM_GENERIC, index)
        q1 = _kernels.quad_form(abs2, dv1)
        dq = _kernels.quad_form(abs2, dv2 - dv1)
        return (_kernels.lemma_difference(q1, dq, a) for a in a_values)

    return chunk


def _lemma_exact(
    d1: ArrayLike, d2: ArrayLike, sigma: float, a_values: Sequence[float]
) -> list[float]:
    """E f(q2) - E f(q1) of verify_lemma_LT_implies_expectation for each a in
    a_values, exact to rounding (validation done by caller).

    For a > 0, f(q) = log2 a + log2(1 + q/a) - log2(1 + q), so the difference
    is R(d2) - R(d1) for R the MGF rate at variances sigma^2/a and sigma^2. At
    a = 0 it is E log2 q2 - E log2 q1 (Frullani's integral, rates._log_gap)
    less the difference of E log2(1 + q), the MGF rate at sigma^2 and 0. Both
    rows go to _mgf_rate as one batch. Their equal sums give the batch the rule
    each row would have alone, but the batch weights its (2, nodes) integrand
    by one gemv, which sums in another order than a single row's dot, so each
    rate is within a few ulps of its single-row call.
    """
    var = sigma * sigma
    d = np.array((d2, d1), dtype=np.float64)
    out = []
    for a in a_values:
        if a > 0:
            r2, r1 = _mgf_rate(d, var / a, var)[0]
            out.append(float(r2 - r1))
        else:
            r2, r1 = _mgf_rate(d, var, 0.0)[0]
            out.append(_log_gap(d, var) - float(r2 - r1))
    return out

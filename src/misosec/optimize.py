"""Projected gradient ascent of the secrecy rate over the power simplex.

The objective is R(d), the secrecy rate of the diagonal allocation d on
{d >= 0, sum d = P}, evaluated by Hamdi's MGF integral (rates._mgf_rate),
which returns the exact gradient dR/dd_k in the same pass. Each iteration
projects d + step * grad back onto the simplex and backtracks (halving the
step) until the Armijo condition R(new) >= R(d) + grad . (new - d) / 2
holds; the next iteration tries twice the accepted step. The run converges
once a step moves d by less than _TOL_SHARE * P in every coordinate. The
whole ascent is deterministic: the seed only picks the random start.

The Monte Carlo gradient grad_estimate stays as an independent cross-check
of the exact one.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from . import _kernels, channel
from .channel import (
    _START_TAG,
    STREAM_EAVESDROPPER,
    ChannelModel,
    PowerAllocation,
    RateEstimate,
    _check_count,
    _check_seed,
    _seeds,
)
from .rates import _check_mc_route, _check_power, _mgf_rate

_SIMPLEX_SLACK = 1e-12
# Armijo fraction: on a quadratic, 1/2 accepts only steps up to 1/curvature,
# so the ascent contracts toward the optimum instead of oscillating across it
_ARMIJO = 0.5
# a run stops once a step moves every coordinate by less than _TOL_SHARE * P,
# which lands the reference problem's runs within 1% of the budget of uniform
_TOL_SHARE = 1e-3


@dataclass(frozen=True)
class OptimizerConfig:
    """Iteration cap and start seed of the ascent.

    seed picks the random start. Runs on the reference problem (n_t=4,
    budget 4, scale ratio 0.5) land within 1% of the budget per coordinate
    from any start.
    """

    max_iters: int = 250
    seed: int = 0

    # read by the benchmark replay, not a setting: the sample count of the
    # Monte Carlo gradient passes it times against the optimizer
    grad_samples: ClassVar[int] = 50_000

    def __post_init__(self) -> None:
        _check_count(self.max_iters, "max_iters", 1)
        _check_seed(self.seed)


@dataclass(frozen=True)
class OptimizerTrace:
    """Iterate history with matching objective estimates.

    Every iterate sits on the simplex {d >= 0, sum d = budget} to within
    1e-12 * budget (checked at construction).
    """

    iterates: tuple[PowerAllocation, ...]
    objective_values: tuple[RateEstimate, ...]
    converged: bool

    def __post_init__(self) -> None:
        if len(self.iterates) == 0:
            raise ValueError("trace must contain at least one iterate")
        if len(self.iterates) != len(self.objective_values):
            raise ValueError("iterates and objective_values must have equal length")
        for alloc in self.iterates:
            drift = abs(sum(alloc.d) - alloc.budget)
            if drift > _SIMPLEX_SLACK * alloc.budget:
                raise ValueError(
                    f"iterate off the simplex: |sum - budget| = {drift} for budget {alloc.budget}"
                )

    @property
    def final(self) -> PowerAllocation:
        return self.iterates[-1]


def project_to_simplex(v: Sequence[float] | NDArray, P: float) -> NDArray[np.float64]:
    """Euclidean projection onto {d >= 0, sum d = P}.

    Idempotent (points already on the simplex are returned unchanged) and
    order preserving. Finite entries of any size land within
    _SIMPLEX_SLACK * P of the simplex; a P so large that the sums overflow
    is rejected.
    """
    if not (math.isfinite(P) and P > 0):
        raise ValueError(f"P must be finite and positive, got {P}")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"can only project a 1-D vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    u = np.sort(v)[::-1]
    # nan sorts last, so it heads u, and the infinities sort to the ends
    if not (math.isfinite(u[0]) and math.isfinite(u[-1])):
        bad = np.flatnonzero(~np.isfinite(v))[0]
        raise ValueError(f"entries must be finite, got v[{bad}] = {v[bad]}")
    # sums near the largest double overflow, and their result misses the simplex
    with np.errstate(over="ignore", invalid="ignore"):
        if u[-1] >= 0.0 and abs(float(v.sum()) - P) <= _SIMPLEX_SLACK * P:
            return v.copy()
        css = np.cumsum(u) - P
        counts = np.arange(1, v.size + 1, dtype=np.float64)
        rho = np.flatnonzero(u - css / counts > 0)
        # entries that dwarf P can round every term to 0; theta is then nan
        theta = css[rho[-1]] / (rho[-1] + 1.0) if rho.size else math.nan
        d = np.maximum(v - theta, 0.0)
        if abs(float(d.sum()) - P) <= _SIMPLEX_SLACK * P:
            return d
        # Entries that dwarf P round theta or the terms above. v - max(v) has
        # the same projection, with terms of the size of P once its entries at
        # or below -P, which project to 0, are clipped there. A v of that form
        # (the retry itself) misses only where P is so large that sums overflow.
        if u[0] == 0.0 and u[-1] >= -P:
            raise ValueError(f"sums overflow or round off the simplex at P = {P}")
        return project_to_simplex(np.maximum(v - u[0], -P), P)


def _grad_objective(
    model: ChannelModel, d: NDArray[np.float64], n_samples: int, seed: int
) -> tuple[NDArray, NDArray]:
    """One pass over the eavesdropper draws: the gradient and its
    per-coordinate std errors at d."""
    chunk = functools.partial(_grad_chunk, model.sigma_g, model.a, d, seed)
    ((grad,),) = channel.stream_moments((chunk,), n_samples)
    return grad


def _grad_chunk(
    sigma_g: float, a: float, d: NDArray[np.float64], seed: int, index: int, rows: int
) -> Iterator[NDArray[np.float64]]:
    """Chunk index of _grad_objective's eavesdropper draws: each row's gradient
    term, its |g_k|^2 times its grad_weights. Module-level, so the
    chunk fn pickles and can run in a pool worker."""
    abs2 = channel._draw_abs2(sigma_g, d.shape[0], rows, seed, STREAM_EAVESDROPPER, index)
    yield abs2 * _kernels.grad_weights(_kernels.quad_form(abs2, d), a)[:, None]


def grad_estimate(
    model: ChannelModel, alloc: PowerAllocation, n_samples: int, seed: int
) -> NDArray[np.float64]:
    """MC gradient of the coupled secrecy objective at alloc (bits per unit power).

    Needs each |g_k|^2, so it always draws the per-entry layout. It shares
    the eavesdropper draw stream with secrecy_rate_coupled_mc only where that
    estimator draws per entry too (allocations rates._draw_layout does not
    sum: unequal ones, or fewer than _GAMMA_MIN_NT antennas). There a central
    finite difference of the estimator at the same seed differs from this
    gradient only by curvature. Every coordinate is positive when a < 1.
    n_samples must be at least 2, alloc must have the model's n_t, and the
    budget, n_t and sigmas must leave headroom, as in secrecy_capacity.
    """
    if model.sigma_h <= model.sigma_g:
        raise ValueError(
            "gradient undefined in the degenerate regime sigma_h <= sigma_g "
            "(objective nonpositive, capacity 0)"
        )
    _check_mc_route(model, alloc, n_samples)
    _check_seed(seed)
    return _grad_objective(model, alloc.as_array(), n_samples, seed)[0]


def _random_start(n_t: int, P: float, seed: int) -> NDArray[np.float64]:
    rng = np.random.default_rng(_seeds(seed, _START_TAG))
    return P * rng.dirichlet(np.ones(n_t))


def optimize_allocation(
    model: ChannelModel,
    P: float,
    config: OptimizerConfig | None = None,
    start: PowerAllocation | Sequence[float] | None = None,
) -> OptimizerTrace:
    """Maximize the secrecy rate over the power simplex by projected ascent.

    start=None draws a random simplex point from config.seed. Non-convergence
    within max_iters is reported via converged=False with the trace intact,
    not an exception. Refuses the degenerate regime sigma_h <= sigma_g, where
    the objective is nonpositive and the capacity is 0, and a P whose rule
    nodes could overflow, as secrecy_capacity does.
    """
    config = config or OptimizerConfig()
    if model.sigma_h <= model.sigma_g:
        raise ValueError(
            "optimizer refuses to run for sigma_h <= sigma_g: "
            "objective nonpositive everywhere, capacity 0"
        )
    if not (math.isfinite(P) and P > 0):
        raise ValueError(f"P must be finite and positive, got {P}")
    _check_power(model, P)
    n_t = model.n_t
    tol = _TOL_SHARE * P

    if start is None:
        d = _random_start(n_t, P, config.seed)
    elif isinstance(start, PowerAllocation):
        d = start.as_array()
    else:
        d = np.asarray(start, dtype=np.float64)
    if d.shape != (n_t,):
        raise ValueError(f"start must have shape ({n_t},), got {d.shape}")
    d = project_to_simplex(d, P)

    var_h, var_g = model.sigma_h**2, model.sigma_g**2

    def evaluate(vec: NDArray) -> tuple[RateEstimate, NDArray]:
        rate, err, grad, nodes = _mgf_rate(vec, var_h, var_g, grad=True)
        return RateEstimate(float(rate), float(err), n_samples=nodes, seed=config.seed), grad

    obj, grad = evaluate(d)
    iterates, objectives = [d], [obj]
    spread = float(np.ptp(grad))
    converged = spread == 0.0  # n_t = 1, or a start at a stationary point
    # the first trial moves some coordinate by about P; backtracking sizes it
    step = 0.0 if converged else P / spread
    for _ in range(0 if converged else config.max_iters):
        while True:
            # the centred gradient projects the same, without cancellation
            new = project_to_simplex(d + step * (grad - grad.mean()), P)
            new_obj, new_grad = evaluate(new)
            moved = float(np.max(np.abs(new - d)))
            ascent = new_obj.mean >= obj.mean + _ARMIJO * float(grad @ (new - d))
            # a move below tol ends the run either way, so stop shrinking there
            if ascent or moved < tol:
                break
            step /= 2.0
        if ascent:
            d, obj, grad = new, new_obj, new_grad
            iterates.append(d)
            objectives.append(obj)
        if moved < tol:
            converged = True
            break
        step *= 2.0
    return OptimizerTrace(
        iterates=tuple(PowerAllocation(d=tuple(float(x) for x in v), budget=P) for v in iterates),
        objective_values=tuple(objectives),
        converged=converged,
    )

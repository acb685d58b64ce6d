"""Projected stochastic gradient ascent of the secrecy rate over the power simplex.

The objective is the coupled-estimator secrecy rate as a function of the
diagonal allocation d on {d >= 0, sum d = P}. Its gradient has the closed
per-sample form |g_k|^2 (1/(a+q) - 1/(1+q)) / ln 2 with q = g^H D g, so one
pass over a common set of draws yields gradient and objective together.

Common random numbers across iterations (a seed pool refreshed every
refresh_every iterations) stabilize the ascent; the step starts at
step_scale * P / ||grad_1|| and decays as 1/sqrt(t). Convergence is declared
when the allocation has moved less than tol over the trailing window AND the
gradient coordinates are equal within noise, which is the stationarity
condition on the interior of the simplex.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from . import _kernels
from .channel import (
    STREAM_EAVESDROPPER,
    ChannelModel,
    PowerAllocation,
    RateEstimate,
    iter_abs2,
)

# substream tags for optimizer-internal randomness
_POOL_TAG = 7
_START_TAG = 8

_SIMPLEX_SLACK = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the stochastic ascent.

    tol is the movement tolerance over the trailing window; None means
    1e-3 * P, resolved at run time. Defaults are sized so that runs on the
    reference problem (n_t=4, budget 4, scale ratio 0.5) land within 1% of
    the budget per coordinate from any start.
    """

    max_iters: int = 250
    grad_samples: int = 50_000
    seed: int = 0
    tol: float | None = None
    step_scale: float = 0.5
    refresh_every: int = 10
    window: int = 20

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.grad_samples < 1:
            raise ValueError(f"grad_samples must be >= 1, got {self.grad_samples}")
        if self.tol is not None and not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not self.step_scale > 0:
            raise ValueError(f"step_scale must be positive, got {self.step_scale}")
        if self.refresh_every < 1:
            raise ValueError(f"refresh_every must be >= 1, got {self.refresh_every}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    @property
    def step_schedule(self) -> str:
        return f"step_scale={self.step_scale} * P / ||grad_1||, decaying as 1/sqrt(t)"


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
    order preserving.
    """
    if not (math.isfinite(P) and P > 0):
        raise ValueError(f"P must be finite and positive, got {P}")
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    total = float(v.sum())
    if np.all(v >= 0.0) and abs(total - P) <= _SIMPLEX_SLACK * max(P, 1.0):
        return v.copy()
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - P
    counts = np.arange(1, v.size + 1, dtype=np.float64)
    rho = np.nonzero(u - css / counts > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _pool_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence((seed % 2**63, _POOL_TAG, epoch)).generate_state(1)[0])


def _grad_objective(
    model: ChannelModel, d: NDArray[np.float64], n_samples: int, seed: int
) -> tuple[NDArray, NDArray, RateEstimate]:
    """One pass over common draws: gradient, its per-coordinate std errors,
    and the coupled objective estimate at d."""
    a = model.a
    objective = _kernels.RunningMoments()
    gradient = _kernels.RunningMoments()
    for abs2 in iter_abs2(model.sigma_g, d.shape[0], n_samples, seed, STREAM_EAVESDROPPER):
        q = _kernels.quad_form(abs2, d)
        objective.add(_kernels.coupled_integrand(q, a))
        gradient.add(abs2 * _kernels.grad_weights(q, a)[:, None])
    grad, grad_se = gradient.mean_se()
    mean, se = objective.mean_se()
    obj = RateEstimate(mean=mean, std_error=se, n_samples=n_samples, seed=seed)
    return grad, grad_se, obj


def grad_estimate(
    model: ChannelModel, alloc: PowerAllocation, n_samples: int, seed: int
) -> NDArray[np.float64]:
    """MC gradient of the coupled secrecy objective at alloc (bits per unit power).

    Shares the eavesdropper draw stream with secrecy_rate_coupled_mc, so a
    central finite difference of that estimator at the same seed differs from
    this gradient only by curvature. Every coordinate is positive when a < 1.
    """
    if model.sigma_h <= model.sigma_g:
        raise ValueError(
            "gradient undefined in the degenerate regime sigma_h <= sigma_g "
            "(objective nonpositive, capacity 0)"
        )
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    grad, _, _ = _grad_objective(model, alloc.as_array(), n_samples, seed)
    return grad


def objective_value(
    model: ChannelModel, alloc: PowerAllocation, n_samples: int, seed: int
) -> RateEstimate:
    """The optimizer's objective: the coupled secrecy-rate estimate at alloc."""
    from .rates import secrecy_rate_coupled_mc

    return secrecy_rate_coupled_mc(model, alloc, n_samples, seed)


def _random_start(n_t: int, P: float, seed: int) -> NDArray[np.float64]:
    rng = np.random.default_rng(np.random.SeedSequence((seed % 2**63, _START_TAG)))
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
    the objective is nonpositive and the capacity is 0.
    """
    config = config or OptimizerConfig()
    if model.sigma_h <= model.sigma_g:
        raise ValueError(
            "optimizer refuses to run for sigma_h <= sigma_g: "
            "objective nonpositive everywhere, capacity 0"
        )
    if not (math.isfinite(P) and P > 0):
        raise ValueError(f"P must be finite and positive, got {P}")
    n_t = model.n_t
    tol = config.tol if config.tol is not None else 1e-3 * P

    if start is None:
        d = _random_start(n_t, P, config.seed)
    elif isinstance(start, PowerAllocation):
        d = start.as_array()
    else:
        d = np.asarray(start, dtype=np.float64)
    if d.shape != (n_t,):
        raise ValueError(f"start must have shape ({n_t},), got {d.shape}")
    d = project_to_simplex(d, P)

    def wrap(vec: NDArray) -> PowerAllocation:
        return PowerAllocation(d=tuple(float(x) for x in vec), budget=P)

    if n_t == 1:
        obj = objective_value(model, wrap(d), config.grad_samples, _pool_seed(config.seed, 0))
        return OptimizerTrace(iterates=(wrap(d),), objective_values=(obj,), converged=True)

    iterates = [d]
    objectives: list[RateEstimate] = []
    converged = False
    step0 = 0.0
    last_seed = _pool_seed(config.seed, 0)
    for t in range(1, config.max_iters + 1):
        last_seed = _pool_seed(config.seed, t // config.refresh_every)
        grad, grad_se, obj = _grad_objective(model, d, config.grad_samples, last_seed)
        objectives.append(obj)
        if t == 1:
            norm = float(np.linalg.norm(grad))
            step0 = config.step_scale * P / norm if norm > 0 else config.step_scale * P
        d = project_to_simplex(d + (step0 / np.sqrt(t)) * grad, P)
        iterates.append(d)
        if t >= config.window:
            moved = float(np.max(np.abs(iterates[-1] - iterates[-1 - config.window])))
            flat = float(np.max(np.abs(grad - grad.mean()))) <= 3.0 * float(np.max(grad_se))
            if moved < tol and flat:
                converged = True
                break
    # one extra evaluation so the final iterate carries an objective too
    _, _, final_obj = _grad_objective(model, d, config.grad_samples, last_seed)
    objectives.append(final_obj)
    return OptimizerTrace(
        iterates=tuple(wrap(v) for v in iterates),
        objective_values=tuple(objectives),
        converged=converged,
    )

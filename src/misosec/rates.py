"""Ergodic rates and secrecy capacity by three mutually validating paths.

All rates are in bits per channel use. The three evaluation routes:

* direct Monte Carlo: independent h and g streams, difference of the two
  ergodic log rates;
* coupled Monte Carlo: one shared g stream evaluating
  log2(a+q) - log2(a) - log2(1+q) per sample, q = g^H D g. Unbiased for the
  same quantity with strictly smaller per-sample variance (common draws);
* quadrature: Hamdi's MGF integral (K. A. Hamdi, IEEE Trans. Commun. 58(2),
  2010) for any allocation d,

      R(d) = (1/ln 2) int_0^inf e^{-s}/s [M_g(s) - M_h(s)] ds,
      M(s) = prod_k 1/(1 + s sigma^2 d_k),

  on one fixed trapezoid rule in u = ln s. Deterministic; its std_error is
  an error estimate (the difference from the rule of twice the step). The
  same pass gives the exact gradient dR/dd_k, which the optimizer ascends.

The capacity is clamped to exactly 0 whenever sigma_h <= sigma_g.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from . import _kernels
from .channel import (
    STREAM_EAVESDROPPER,
    STREAM_GENERIC,
    STREAM_LEGITIMATE,
    ChannelModel,
    PowerAllocation,
    RateEstimate,
    iter_abs2,
)

DEFAULT_MC_SAMPLES = 1_000_000

_LN2 = math.log(2.0)
# Trapezoid rule in u = ln s. The integrand is analytic for |Im u| < pi/2, so
# the error falls as exp(-pi^2/step): ~1e-17 relative at 1/4, ~1e-9 at 1/2.
# It spans min(-ln max sigma^2 d_k, 0) - DEPTH, where the integrand is below
# e^-40 of its peak, to TOP, past which e^{-s} < e^-54.
_MGF_STEP, _MGF_TOP, _MGF_DEPTH = 0.25, 4.0, 40.0


class MethodTag(Enum):
    DIRECT_MC = "direct_mc"
    COUPLED_MC = "coupled_mc"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class EvalMethod:
    """How to evaluate an expectation: MC with n_samples and a seed, or the
    deterministic MGF integral (n_samples unused, seed carried only as a
    record)."""

    tag: MethodTag
    n_samples: int = DEFAULT_MC_SAMPLES
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.tag, MethodTag):
            raise ValueError(f"tag must be a MethodTag, got {self.tag!r}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")

    @classmethod
    def direct_mc(cls, n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0) -> EvalMethod:
        return cls(tag=MethodTag.DIRECT_MC, n_samples=n_samples, seed=seed)

    @classmethod
    def coupled_mc(cls, n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0) -> EvalMethod:
        return cls(tag=MethodTag.COUPLED_MC, n_samples=n_samples, seed=seed)

    @classmethod
    def quadrature(cls) -> EvalMethod:
        return cls(tag=MethodTag.QUADRATURE)


def _stream_mean_se(
    sigma: float, d: np.ndarray, n_samples: int, seed: int, stream: int
) -> tuple[float, float]:
    """Mean and std error of log2(1 + g^H D g) over chunked draws."""
    moments = _kernels.RunningMoments()
    for abs2 in iter_abs2(sigma, d.shape[0], n_samples, seed, stream):
        moments.add(_kernels.log_rate(_kernels.quad_form(abs2, d)))
    return moments.mean_se()


def ergodic_log_rate_mc(
    sigma: float, alloc: PowerAllocation, n_samples: int, seed: int
) -> RateEstimate:
    """Sample-mean estimate of E[log2(1 + sum_k d_k |g_k|^2)], entries at scale sigma."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    mean, se = _stream_mean_se(sigma, alloc.as_array(), n_samples, seed, STREAM_GENERIC)
    return RateEstimate(mean=mean, std_error=se, n_samples=n_samples, seed=seed)


def secrecy_rate_direct_mc(
    model: ChannelModel, alloc: PowerAllocation, n_samples: int, seed: int
) -> RateEstimate:
    """E_h[log2(1+h^H D h)] - E_g[log2(1+g^H D g)] from independent h and g streams.

    std_error combines both terms in quadrature.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    d = alloc.as_array()
    mean_h, se_h = _stream_mean_se(model.sigma_h, d, n_samples, seed, STREAM_LEGITIMATE)
    mean_g, se_g = _stream_mean_se(model.sigma_g, d, n_samples, seed, STREAM_EAVESDROPPER)
    return RateEstimate(
        mean=mean_h - mean_g,
        std_error=math.hypot(se_h, se_g),
        n_samples=n_samples,
        seed=seed,
    )


def secrecy_rate_coupled_mc(
    model: ChannelModel, alloc: PowerAllocation, n_samples: int, seed: int
) -> RateEstimate:
    """Variance-reduced estimate of the secrecy rate from one shared g stream.

    Evaluates log2(a+q) - log2(a) - log2(1+q) per sample with q = g^H D g and
    a = sigma_g^2/sigma_h^2, so the std_error reflects the coupling. Unbiased
    for the same quantity as secrecy_rate_direct_mc. Per-sample values vanish
    identically when a = 1 or the allocation is all zeros.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    d = alloc.as_array()
    a = model.a
    moments = _kernels.RunningMoments()
    for abs2 in iter_abs2(model.sigma_g, d.shape[0], n_samples, seed, STREAM_EAVESDROPPER):
        moments.add(_kernels.coupled_integrand(_kernels.quad_form(abs2, d), a))
    mean, se = moments.mean_se()
    return RateEstimate(mean=mean, std_error=se, n_samples=n_samples, seed=seed)


def _mgf_rate(
    d: NDArray[np.float64], var_h: float, var_g: float
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], int]:
    """E[log2(1 + h^H D h)] - E[log2(1 + g^H D g)] by Hamdi's MGF integral.

    Entries of h and g have variances var_h and var_g; var_g = 0 makes
    M_g = 1 and leaves the single rate E[log2(1 + h^H D h)]. d has shape
    (..., n_t): each row along the last axis is one allocation, and a 1-D d
    is a batch of one. Returns the rates and error estimates (the gap to the
    rule of twice the step), both of shape d.shape[:-1], the exact gradients
    dR/dd_k of d's shape, and the node count. The whole batch shares the
    rule of its largest entry, so a row's rate can differ from its own
    single-row call by a few ulps. After s = e^u the rate is
    int e^{-s} [M_g - M_h] du, with M_g - M_h formed as
    M_g * (-expm1(L_g - L_h)), L = sum_k log1p(s sigma^2 d_k), so it keeps
    full relative accuracy where the two transforms nearly coincide.
    """
    c_max = max(var_h, var_g) * float(np.max(d))
    bottom = -math.log(max(c_max, 1.0)) - _MGF_DEPTH
    nodes = math.ceil((_MGF_TOP - bottom) / _MGF_STEP) + 1
    s = np.exp(_MGF_TOP - _MGF_STEP * np.arange(nodes))
    x_h = s[:, None] * (var_h * d[..., None, :])
    x_g = s[:, None] * (var_g * d[..., None, :])
    log_h = np.sum(np.log1p(x_h), axis=-1)
    log_g = np.sum(np.log1p(x_g), axis=-1)
    decay = np.exp(-s)
    m_h = np.exp(-log_h)
    m_g = np.exp(-log_g)
    f = decay * m_g * -np.expm1(log_g - log_h)
    rate = _MGF_STEP * np.sum(f, axis=-1) / _LN2
    coarse = 2.0 * _MGF_STEP * np.sum(f[..., ::2], axis=-1) / _LN2
    # dR/dd_k = (1/ln 2) int e^{-s} s [var_h M_h/(1+x_h,k) - var_g M_g/(1+x_g,k)] du
    w = decay * s
    grad = (var_h * ((w * m_h)[..., None, :] @ (1.0 / (1.0 + x_h)))
            - var_g * ((w * m_g)[..., None, :] @ (1.0 / (1.0 + x_g))))[..., 0, :]
    return rate, np.abs(rate - coarse), grad * (_MGF_STEP / _LN2), nodes


def ergodic_log_rate_quadrature(sigma: float, total_power: float, n_t: int) -> float:
    """Deterministic E[log2(1 + (P/n_t) ||g||^2)], entries of g at scale sigma.

    Uniform allocation is implied: each antenna carries total_power/n_t.
    P = 0 returns exactly 0; negative P is rejected.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if n_t < 1:
        raise ValueError(f"n_t must be >= 1, got {n_t}")
    if not (math.isfinite(total_power) and total_power >= 0):
        raise ValueError(f"total_power must be finite and >= 0, got {total_power}")
    if total_power == 0:
        return 0.0
    return float(_mgf_rate(np.full(n_t, total_power / n_t), sigma * sigma, 0.0)[0])


def secrecy_capacity(model: ChannelModel, P: float, method: EvalMethod) -> RateEstimate:
    """Secrecy capacity at total power P under the selected evaluation method.

    Uses the uniform allocation (optimal under statistical-only transmitter
    knowledge). Returns exactly 0 when sigma_h <= sigma_g or P = 0.
    """
    if not (math.isfinite(P) and P >= 0):
        raise ValueError(f"P must be finite and >= 0, got {P}")
    if model.sigma_h <= model.sigma_g or P == 0:
        # a clamp evaluates nothing: one "node" for quadrature, the requested count for MC
        count = 1 if method.tag is MethodTag.QUADRATURE else method.n_samples
        return RateEstimate(mean=0.0, std_error=0.0, n_samples=count, seed=method.seed)
    alloc = PowerAllocation.uniform(model.n_t, P)
    if method.tag is MethodTag.QUADRATURE:
        mean, err, _, nodes = _mgf_rate(alloc.as_array(), model.sigma_h**2, model.sigma_g**2)
        return RateEstimate(float(mean), float(err), n_samples=nodes, seed=method.seed)
    if method.tag is MethodTag.DIRECT_MC:
        return secrecy_rate_direct_mc(model, alloc, method.n_samples, method.seed)
    return secrecy_rate_coupled_mc(model, alloc, method.n_samples, method.seed)


def asymptote_high_snr(model: ChannelModel) -> float:
    """High-power limit 2*log2(sigma_h/sigma_g); 0 when sigma_h <= sigma_g.

    Independent of n_t: the expected-log terms of the two channels differ only
    through their scales once power is large.
    """
    if model.sigma_h <= model.sigma_g:
        return 0.0
    return 2.0 * math.log2(model.sigma_h / model.sigma_g)


def asymptote_large_nt(model: ChannelModel, P: float) -> float:
    """Many-antenna limit log2(1 + P sigma_h^2) - log2(1 + P sigma_g^2).

    By the law of large numbers ||h||^2/n_t concentrates at sigma_h^2, so the
    uniform-allocation capacity converges to this value as n_t grows.
    """
    return math.log2(1.0 + P * model.sigma_h**2) - math.log2(1.0 + P * model.sigma_g**2)

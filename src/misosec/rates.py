"""Ergodic rates and secrecy capacity by three mutually validating paths.

All rates are in bits per channel use. The three evaluation routes:

* direct Monte Carlo: independent h and g streams, difference of the two
  ergodic log rates;
* coupled Monte Carlo: one shared g stream evaluating
  log2(a+q) - log2(a) - log2(1+q) per sample, q = g^H D g. Unbiased for the
  same quantity with strictly smaller per-sample variance (common draws);
* Gauss quadrature adapted to the Gamma law of ||g||^2, for uniform
  allocations only. Deterministic, std_error 0.

The capacity is clamped to exactly 0 whenever sigma_h <= sigma_g.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

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
DEFAULT_QUAD_NODES = 192


class MethodTag(Enum):
    DIRECT_MC = "direct_mc"
    COUPLED_MC = "coupled_mc"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class EvalMethod:
    """How to evaluate an expectation: MC with n_samples and a seed, or an
    n_nodes quadrature rule (seed carried only as a record)."""

    tag: MethodTag
    n_samples: int = DEFAULT_MC_SAMPLES
    n_nodes: int = DEFAULT_QUAD_NODES
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.tag, MethodTag):
            raise ValueError(f"tag must be a MethodTag, got {self.tag!r}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.n_nodes < 8:
            raise ValueError(f"n_nodes must be >= 8, got {self.n_nodes}")

    @classmethod
    def direct_mc(cls, n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0) -> EvalMethod:
        return cls(tag=MethodTag.DIRECT_MC, n_samples=n_samples, seed=seed)

    @classmethod
    def coupled_mc(cls, n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0) -> EvalMethod:
        return cls(tag=MethodTag.COUPLED_MC, n_samples=n_samples, seed=seed)

    @classmethod
    def quadrature(cls, n_nodes: int = DEFAULT_QUAD_NODES) -> EvalMethod:
        return cls(tag=MethodTag.QUADRATURE, n_nodes=n_nodes)


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


@lru_cache(maxsize=64)
def _gamma_rule(shape: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating exactly against Gamma(shape, scale=1).

    Golub-Welsch on the generalized-Laguerre three-term recurrence with
    alpha = shape - 1; weights come from the squared first components of the
    eigenvectors, which stays finite where Gamma(shape) would overflow.
    """
    alpha = shape - 1.0
    k = np.arange(n_nodes, dtype=np.float64)
    diag = 2.0 * k + alpha + 1.0
    sub = np.sqrt(k[1:] * (k[1:] + alpha))
    nodes, vecs = eigh_tridiagonal(diag, sub)
    weights = vecs[0, :] ** 2
    weights = weights / weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def ergodic_log_rate_quadrature(
    sigma: float, total_power: float, n_t: int, n_nodes: int = DEFAULT_QUAD_NODES
) -> float:
    """Deterministic E[log2(1 + (P/n_t) X)] with X = ||g||^2 ~ Gamma(n_t, sigma^2).

    Uniform allocation is implied: each antenna carries total_power/n_t.
    P = 0 returns exactly 0; negative P is rejected.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if n_t < 1:
        raise ValueError(f"n_t must be >= 1, got {n_t}")
    if n_nodes < 8:
        raise ValueError(f"n_nodes must be >= 8, got {n_nodes}")
    if not (math.isfinite(total_power) and total_power >= 0):
        raise ValueError(f"total_power must be finite and >= 0, got {total_power}")
    if total_power == 0:
        return 0.0
    nodes, weights = _gamma_rule(int(n_t), int(n_nodes))
    x = (sigma * sigma) * nodes
    return float(np.sum(weights * np.log2(1.0 + (total_power / n_t) * x)))


def secrecy_capacity(model: ChannelModel, P: float, method: EvalMethod) -> RateEstimate:
    """Secrecy capacity at total power P under the selected evaluation method.

    Uses the uniform allocation (optimal under statistical-only transmitter
    knowledge). Returns exactly 0 when sigma_h <= sigma_g or P = 0.
    """
    if not (math.isfinite(P) and P >= 0):
        raise ValueError(f"P must be finite and >= 0, got {P}")
    count = method.n_nodes if method.tag is MethodTag.QUADRATURE else method.n_samples
    if model.sigma_h <= model.sigma_g or P == 0:
        return RateEstimate(mean=0.0, std_error=0.0, n_samples=count, seed=method.seed)
    if method.tag is MethodTag.QUADRATURE:
        rate_h = ergodic_log_rate_quadrature(model.sigma_h, P, model.n_t, method.n_nodes)
        rate_g = ergodic_log_rate_quadrature(model.sigma_g, P, model.n_t, method.n_nodes)
        return RateEstimate(
            mean=rate_h - rate_g, std_error=0.0, n_samples=count, seed=method.seed
        )
    alloc = PowerAllocation.uniform(model.n_t, P)
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

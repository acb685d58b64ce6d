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

  on one fixed trapezoid rule in u = ln s whose left tail, where the
  integrand is a power series in s, is summed by one weighted node.
  Deterministic; its std_error is an error estimate (the difference from the
  rule of twice the step, but never below the rounding error of the sum).
  The same pass gives the exact gradient dR/dd_k, which the optimizer
  ascends.

The Monte Carlo routes only need q, and for an equal allocation d = (P/n_t)1
q is (P/n_t) sum_k |g_k|^2, whose sum is one Gamma(n_t) variate scaled by
sigma^2. So from _GAMMA_MIN_NT antennas on, an equal allocation draws each row
as that one variate (channel's summed layout) and weights it by d[:1]; every
other allocation draws the n_t per-entry exponentials and forms q by
quad_form. _draw_layout makes that choice. Each route reports a std_error,
so it needs at least two samples.

The capacity is clamped to exactly 0 whenever sigma_h <= sigma_g.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

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
    stream_moments,
)

DEFAULT_MC_SAMPLES = 1_000_000

_LN2 = math.log(2.0)
_EPS = float(np.finfo(np.float64).eps)
# Trapezoid rule in u = ln s. The integrand is analytic for |Im u| < pi/2, so
# the error falls as exp(-pi^2/step): ~1e-17 relative at 1/4, ~1e-9 at 1/2.
# Its explicit nodes u = TOP - k step run from TOP, past which e^{-s} < e^-54,
# down to s_L, the first node of even k at or below e^-DEPTH / c, where
# c = max(max(sigma_h^2, sigma_g^2) * S, 1) and S is the largest row sum of d;
# the even k lets the rule of twice the step end on s_L too. The rule's nodes
# below, s_L e^{-j step} for j >= 1, are summed by one node at
# s_L / (e^step + 1) of weight step coth(step/2), which matches their sums of
# s and of s^2 exactly (the coarse rule's node sits at s_L / (e^{2 step} + 1),
# weight 2 step coth(step)). For s <= 1/c the integrand is a power series in s
# whose s^m coefficient is at most e m |sigma_h^2 - sigma_g^2| S c^{m-1}, so
# past its s and s^2 terms it is within 3e |sigma_h^2 - sigma_g^2| S s (cs)^2,
# and the tail is summed to within 3.2 |sigma_h^2 - sigma_g^2| S c^2 s_L^3.
# The integral over s <= 1/c alone gives the rate at least
# |sigma_h^2 - sigma_g^2| S / (2 e^2 c) nats. With c s_L <= e^-DEPTH the tail
# error is below 47 e^{-3 DEPTH} of the rate; DEPTH = 14 makes that e^-38,
# and each gradient term (coefficients up to e (2c)^m) stays within e^-37:
# below half an ulp. DEPTH is that bound, not a setting.
_MGF_STEP, _MGF_TOP, _MGF_DEPTH = 0.25, 4.0, 14.0
# The tail nodes of the rules of step h and 2h, as fractions of s_L, and their weights.
_MGF_TAIL_AT = 1.0 / (np.exp([_MGF_STEP, 2 * _MGF_STEP]) + 1.0)
_MGF_TAIL_WEIGHT = (_MGF_STEP / math.tanh(_MGF_STEP / 2), 2 * _MGF_STEP / math.tanh(_MGF_STEP))
# Bound on the factor the routes put on max(P, n_t) * sigma^2 before a log.
# An Exponential(1) draw stays below 45 (numpy's ziggurat tail, 7.7 - ln 2^-53)
# and a quadratic form's weights sum to P. A summed draw has Gamma(n)/n below
# 31 for n >= _GAMMA_MIN_NT: numpy's Marsaglia-Tsang step returns
# b (1 + X / (3 sqrt b))^3, b = n - 1/3, for a standard normal X that its
# ziggurat keeps below 13.8 (3.65 - 0.274 ln 2^-53). So the row sum
# sigma^2 Gamma(n_t) stays below 31 n_t sigma^2 until the weight P/n_t takes it
# below 31 P sigma^2. The MGF rule's largest node is s = e^4 < 55. The draws
# are scaled by sigma^2 before any power weights them, hence max(P, n_t).
_HEADROOM = 1e3
# Smallest n_t at which an equal allocation draws each row as one Gamma(n_t)
# variate. standard_gamma (Marsaglia & Tsang, ACM TOMS 26(3), 2000) costs about
# the same per row whatever n_t is; n_t exponentials plus the quad_form gemv
# grow with n_t. Per CHUNK rows on a 2-core host: 0.8-1.3 ms for the variate,
# against 0.5-0.8 ms at n_t=2, a tie at 3-4 and 1.2-2.0 ms at n_t=5 per entry.
# A measured crossover, not a setting.
_GAMMA_MIN_NT = 5


def _check_mc_samples(n_samples: int) -> None:
    # one draw has no spread to measure, so its std_error of 0 would claim an exact answer
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2 for a Monte Carlo std error, got {n_samples}")


class MethodTag(Enum):
    DIRECT_MC = "direct_mc"
    COUPLED_MC = "coupled_mc"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class EvalMethod:
    """How to evaluate an expectation: MC with n_samples >= 2 and a seed, or
    the deterministic MGF integral (n_samples unused, seed carried only as a
    record)."""

    tag: MethodTag
    n_samples: int = DEFAULT_MC_SAMPLES
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.tag, MethodTag):
            raise ValueError(f"tag must be a MethodTag, got {self.tag!r}")
        if self.tag is not MethodTag.QUADRATURE:
            _check_mc_samples(self.n_samples)
        elif self.n_samples < 1:
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


def _draw_layout(d: NDArray[np.float64]) -> tuple[NDArray[np.float64], bool]:
    """The allocation the kernels see for d, and whether its rows are drawn summed.

    An equal d with at least _GAMMA_MIN_NT entries weights each row's one
    Gamma(n_t) sum by d[:1]; any other d keeps its per-entry draws.
    """
    if d.shape[0] >= _GAMMA_MIN_NT and np.all(d == d[0]):
        return d[:1], True
    return d, False


def _log_rate_of(d: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Per-row log2(1 + g^H D g) of a chunk of |g_k|^2."""
    return lambda abs2: _kernels.log_rate(_kernels.quad_form(abs2, d))


def ergodic_log_rate_mc(
    sigma: float, alloc: PowerAllocation, n_samples: int, seed: int
) -> RateEstimate:
    """Sample-mean estimate of E[log2(1 + sum_k d_k |g_k|^2)], entries at scale sigma.

    Rejects a budget, n_t and sigma without headroom, as secrecy_capacity does.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    _check_mc_samples(n_samples)
    _check_headroom(alloc.budget, alloc.n_t, sigma)
    d, summed = _draw_layout(alloc.as_array())
    ((mean, se),) = stream_moments(
        _log_rate_of(d), ((sigma, STREAM_GENERIC),), alloc.n_t, n_samples, seed, _summed=summed
    )
    return RateEstimate(mean=mean, std_error=se, n_samples=n_samples, seed=seed)


def secrecy_rate_direct_mc(
    model: ChannelModel, alloc: PowerAllocation, n_samples: int, seed: int
) -> RateEstimate:
    """E_h[log2(1+h^H D h)] - E_g[log2(1+g^H D g)] from independent h and g streams.

    std_error combines both terms in quadrature. Both streams are reduced in
    one call, so their chunks share the pool. Rejects an allocation whose
    n_t is not the model's, and a budget, n_t and sigmas without headroom, as
    secrecy_capacity does.
    """
    _check_mc_route(model, alloc, n_samples)
    d, summed = _draw_layout(alloc.as_array())
    draws = ((model.sigma_h, STREAM_LEGITIMATE), (model.sigma_g, STREAM_EAVESDROPPER))
    (mean_h, se_h), (mean_g, se_g) = stream_moments(
        _log_rate_of(d), draws, alloc.n_t, n_samples, seed, _summed=summed
    )
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
    identically when a = 1 or the allocation is all zeros. Rejects an
    allocation whose n_t is not the model's, and a budget, n_t and sigmas
    without headroom, as secrecy_capacity does.
    """
    _check_mc_route(model, alloc, n_samples)
    d, summed = _draw_layout(alloc.as_array())
    a = model.a
    ((mean, se),) = stream_moments(
        lambda abs2: _kernels.coupled_integrand(_kernels.quad_form(abs2, d), a),
        ((model.sigma_g, STREAM_EAVESDROPPER),), alloc.n_t, n_samples, seed, _summed=summed,
    )
    return RateEstimate(mean=mean, std_error=se, n_samples=n_samples, seed=seed)


def _sum_last(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """np.sum(x, axis=-1), with the same bits.

    numpy sums a last axis of fewer than 8 terms left to right, a column at a
    time through strided loops, at several times the cost of the same fold
    written as whole-column adds. From 8 terms on it sums pairwise, so those
    stay with np.sum.
    """
    if x.shape[-1] >= 8:
        return np.sum(x, axis=-1)
    out = x[..., 0].copy()
    for k in range(1, x.shape[-1]):
        out += x[..., k]
    return out


def _mgf_rate(
    d: NDArray[np.float64], var_h: float, var_g: float, *, grad: bool = False
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64] | None, int]:
    """E[log2(1 + h^H D h)] - E[log2(1 + g^H D g)] by Hamdi's MGF integral.

    Entries of h and g have variances var_h and var_g; var_g = 0 makes
    M_g = 1 and leaves the single rate E[log2(1 + h^H D h)]. d has shape
    (..., n_t): each row along the last axis is one allocation, and a 1-D d
    is a batch of one. Returns the rates and error estimates (the gap to the
    rule of twice the step, but at least eps * sum |f| weight / ln 2, the
    rounding error of the weighted sum), both of shape d.shape[:-1], the
    exact gradients dR/dd_k of d's shape, and the node count: the rule's
    explicit nodes, without the two tail nodes that sum everything below
    them. Only a caller that sets grad gets the gradients; the others get
    None and skip their cost, with the same rates and error estimates to the
    bit. The whole batch shares the rule of its largest row sum, so a row's
    rate can differ from its own single-row call by a few ulps. After s = e^u
    the rate is int e^{-s} [M_g - M_h] du, with M_g - M_h formed as
    M_g * (-expm1(L_g - L_h)), L = sum_k log1p(s sigma^2 d_k), so it keeps
    full relative accuracy where the two transforms nearly coincide.
    """
    h = _MGF_STEP
    c = max(var_h, var_g) * float(np.max(np.sum(d, axis=-1)))
    last = 2 * math.ceil((_MGF_TOP + math.log(max(c, 1.0)) + _MGF_DEPTH) / (2 * h))
    s = np.exp(_MGF_TOP - h * np.arange(last + 1))
    s = np.concatenate((s, s[-1] * _MGF_TAIL_AT))
    weight = np.full(s.size, h)  # the rule of step h: its nodes and its tail node
    weight[-2:] = (_MGF_TAIL_WEIGHT[0], 0.0)
    coarse = np.zeros(s.size)  # the rule of step 2h: the even nodes and its own tail node
    coarse[:-2:2] = 2 * h
    coarse[-1] = _MGF_TAIL_WEIGHT[1]
    x_h = s[:, None] * (var_h * d[..., None, :])
    x_g = s[:, None] * (var_g * d[..., None, :])
    # without the gradient, x is not read again, so log1p may overwrite it
    log_h = _sum_last(np.log1p(x_h, out=None if grad else x_h))
    log_g = _sum_last(np.log1p(x_g, out=None if grad else x_g))
    decay = np.exp(-s)
    m_g = np.exp(-log_g)
    f = decay * m_g * -np.expm1(log_g - log_h)
    rate = f @ weight / _LN2
    rate_coarse = f @ coarse / _LN2
    err = np.maximum(np.abs(rate - rate_coarse), _EPS * (np.abs(f) @ weight) / _LN2)
    if not grad:
        return rate, err, None, last + 1
    # dR/dd_k = (1/ln 2) int e^{-s} s [var_h M_h/(1+x_h,k) - var_g M_g/(1+x_g,k)] du
    w = decay * s * weight
    m_h = np.exp(-log_h)
    dr = (var_h * ((w * m_h)[..., None, :] @ (1.0 / (1.0 + x_h)))
          - var_g * ((w * m_g)[..., None, :] @ (1.0 / (1.0 + x_g))))[..., 0, :]
    return rate, err, dr / _LN2, last + 1


def ergodic_log_rate_quadrature(sigma: float, total_power: float, n_t: int) -> float:
    """Deterministic E[log2(1 + (P/n_t) ||g||^2)], entries of g at scale sigma.

    Uniform allocation is implied: each antenna carries total_power/n_t.
    P = 0 returns exactly 0; negative P is rejected, and so are a P, n_t and
    sigma without headroom, as in secrecy_capacity.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if n_t < 1:
        raise ValueError(f"n_t must be >= 1, got {n_t}")
    if not (math.isfinite(total_power) and total_power >= 0):
        raise ValueError(f"total_power must be finite and >= 0, got {total_power}")
    if total_power == 0:
        return 0.0
    _check_headroom(total_power, n_t, sigma)
    return float(_mgf_rate(np.full(n_t, total_power / n_t), sigma * sigma, 0.0)[0])


def _check_mc_route(model: ChannelModel, alloc: PowerAllocation, n_samples: int) -> None:
    """The checks of a Monte Carlo route given a model and an allocation:
    at least two samples, one allocation entry per antenna, and headroom."""
    _check_mc_samples(n_samples)
    if alloc.n_t != model.n_t:
        raise ValueError(f"allocation has {alloc.n_t} entries but the model has n_t={model.n_t}")
    _check_headroom(alloc.budget, alloc.n_t, max(model.sigma_h, model.sigma_g))


def _check_headroom(P: float, n_t: int, sigma: float) -> None:
    """Reject a P, n_t and largest scale sigma whose draws or rule nodes could overflow."""
    if not math.isfinite(_HEADROOM * max(P, n_t) * (sigma * sigma)):
        raise ValueError(
            f"max(P, n_t) * sigma^2 must stay finite with headroom {_HEADROOM:g}, "
            f"got P={P}, n_t={n_t}, sigma={sigma}"
        )


def secrecy_capacity(model: ChannelModel, P: float, method: EvalMethod) -> RateEstimate:
    """Secrecy capacity at total power P under the selected evaluation method.

    Uses the uniform allocation (optimal under statistical-only transmitter
    knowledge). Returns exactly 0 when sigma_h <= sigma_g or P = 0. Otherwise
    rejects a P, n_t and sigmas whose draws or rule nodes could overflow: those
    where _HEADROOM * max(P, n_t) * max(sigma_h^2, sigma_g^2) is not finite.
    """
    if not (math.isfinite(P) and P >= 0):
        raise ValueError(f"P must be finite and >= 0, got {P}")
    if model.sigma_h <= model.sigma_g or P == 0:
        # a clamp evaluates nothing: one "node" for quadrature, the requested count for MC
        count = 1 if method.tag is MethodTag.QUADRATURE else method.n_samples
        return RateEstimate(mean=0.0, std_error=0.0, n_samples=count, seed=method.seed)
    _check_headroom(P, model.n_t, max(model.sigma_h, model.sigma_g))
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

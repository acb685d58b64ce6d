"""Ergodic rates and secrecy capacity by three mutually validating paths.

All rates are in bits per channel use. The three evaluation routes:

* direct Monte Carlo: independent h and g streams, difference of the two
  ergodic log rates;
* coupled Monte Carlo: one shared g stream evaluating
  log2(a+q) - log2(a) - log2(1+q) per sample, q = g^H D g, as one log1p that
  keeps its relative accuracy for a near 1 (_kernels.coupled_integrand).
  Unbiased for the same quantity with strictly smaller per-sample variance
  (common draws);
* quadrature: Hamdi's MGF integral (K. A. Hamdi, IEEE Trans. Commun. 58(2),
  2010) for any allocation d,

      R(d) = (1/ln 2) int_0^inf e^{-s}/s [M_g(s) - M_h(s)] ds,
      M(s) = prod_k 1/(1 + s sigma^2 d_k),

  on one fixed trapezoid rule in u = ln s whose left tail, where the
  integrand is a power series in s, is summed by one weighted node.
  Deterministic; its std_error is an error estimate (the difference from the
  rule of twice the step, but never below the rounding error of the sum).
  The same pass gives the exact gradient dR/dd_k, which the optimizer
  ascends. Its arrays are antenna-first, (n_t, ..., nodes), so a batch of
  allocations runs along the node axis, with the bits of a nodes-last sum
  (_sum_antennas); the rule's arrays are cached per node count (_mgf_rule).

The capacity routes hold d = (P/n_t)1 as one entry P/n_t with the count n_t,
so no capacity call allocates in proportion to n_t. The Monte Carlo routes only
need q, and for an equal allocation q is (P/n_t) sum_k |g_k|^2, whose sum is
one Gamma(n_t) variate scaled by sigma^2. So from _GAMMA_MIN_NT antennas on, an
equal allocation draws each row as that one variate (channel's summed layout)
and weights it by its entry; every other allocation draws the n_t per-entry
exponentials (by inversion of uniforms, see channel._draw_abs2) and forms q by
quad_form. _draw_layout makes that choice. Each route reports a std_error, so
it needs at least two samples.

The capacity is clamped to exactly 0 whenever sigma_h <= sigma_g.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from . import _kernels, channel
from .channel import (
    STREAM_EAVESDROPPER,
    STREAM_GENERIC,
    STREAM_LEGITIMATE,
    ChannelModel,
    PowerAllocation,
    RateEstimate,
    _check_count,
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
# An Exponential(1) draw -log(1 - U) of a 53-bit uniform U stays at or below
# 53 ln 2 < 36.8, and a quadratic form's weights sum to P. A summed draw has
# Gamma(n)/n below 31 for n >= _GAMMA_MIN_NT: numpy's Marsaglia-Tsang step returns
# b (1 + X / (3 sqrt b))^3, b = n - 1/3, for a standard normal X that its
# ziggurat keeps below 13.8 (3.65 - 0.274 ln 2^-53). So the row sum
# sigma^2 Gamma(n_t) stays below 31 n_t sigma^2 until the weight P/n_t takes it
# below 31 P sigma^2. The MGF rule's largest node is s = e^4 < 55. The draws
# are scaled by sigma^2 before any power weights them, hence max(P, n_t).
# These bounds hold for any 64-bit generator, SFC64 included: numpy forms
# both the uniforms and the ziggurat's tail draws from next_double, the top
# 53 bits of one 64-bit output times 2^-53.
_HEADROOM = 1e3
# Smallest n_t at which an equal allocation draws each row as one Gamma(n_t)
# variate. standard_gamma (Marsaglia & Tsang, ACM TOMS 26(3), 2000) costs about
# the same per row whatever n_t is; n_t exponentials plus the quad_form gemv
# grow with n_t. Per CHUNK rows drawn by SFC64 on a 2-core host (lower
# quartile/median of 80 interleaved chunks, draw plus quad_form, in three
# runs): 0.44 ms for the variate at n_t=5, against 0.35-0.36 ms at n_t=4 per
# entry, 0.44-0.46 ms at 5 (a tie) and 0.53-0.55 ms at 6. A measured
# crossover, not a setting.
_GAMMA_MIN_NT = 5


def _check_mc_samples(n_samples: int) -> None:
    # at least 2: one draw has no spread to measure, so its std_error of 0
    # would claim an exact answer
    _check_count(n_samples, "n_samples", 2)


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
        else:
            _check_count(self.n_samples, "n_samples", 1)

    @classmethod
    def direct_mc(cls, n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0) -> EvalMethod:
        return cls(tag=MethodTag.DIRECT_MC, n_samples=n_samples, seed=seed)

    @classmethod
    def coupled_mc(cls, n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0) -> EvalMethod:
        return cls(tag=MethodTag.COUPLED_MC, n_samples=n_samples, seed=seed)

    @classmethod
    def quadrature(cls, seed: int = 0) -> EvalMethod:
        return cls(tag=MethodTag.QUADRATURE, seed=seed)


def _draw_layout(d: NDArray[np.float64], n_t: int) -> tuple[NDArray[np.float64], bool]:
    """The allocation the kernels see for d on n_t antennas, and whether its
    rows are drawn summed. d holds n_t entries, or one entry that every
    antenna carries.

    An equal d on at least _GAMMA_MIN_NT antennas weights each row's one
    Gamma(n_t) sum by d[:1]; any other d keeps its per-entry draws, a one-entry
    d repeated n_t times (the floats of np.full, so quad_form keeps its bits).
    """
    if n_t >= _GAMMA_MIN_NT and np.all(d == d[0]):
        return d[:1], True
    return (d if d.shape[0] == n_t else np.repeat(d, n_t)), False


def _quad_form_chunks(
    sigma: float, stream: int, ds: Sequence[NDArray[np.float64]], n_t: int, seed: int,
    kernel: Callable[[NDArray[np.float64]], NDArray[np.float64]],
) -> Callable[[int, int], Iterator[NDArray[np.float64]]]:
    """The stream_moments chunk fn of one stream at scale sigma on n_t antennas:
    per-row kernel(q), q = g^H D g, for each D in ds in turn, all on one draw of
    the chunk. It is a functools.partial of _quad_form_chunk, so it pickles
    (given a picklable kernel) and can run in a pool worker.

    ds is one allocation or a batch of equal ones of one length, in either form
    _draw_layout takes, so it gives them all one layout.
    """
    layouts = [_draw_layout(d, n_t) for d in ds]
    weights = [d for d, _ in layouts]
    return functools.partial(
        _quad_form_chunk, sigma, n_t, layouts[0][1], weights, seed, stream, kernel
    )


def _quad_form_chunk(
    sigma: float, n_t: int, summed: bool, weights: Sequence[NDArray[np.float64]], seed: int,
    stream: int, kernel: Callable[[NDArray[np.float64]], NDArray[np.float64]], index: int, rows: int,
) -> Iterator[NDArray[np.float64]]:
    """Chunk index of a _quad_form_chunks fn, drawn in its layout: kernel(q)
    for the weights of each allocation in turn."""
    abs2 = channel._draw_abs2(sigma, n_t, rows, seed, stream, index, summed)
    return (kernel(_kernels.quad_form(abs2, d)) for d in weights)


def ergodic_log_rate_mc(
    sigma: float, alloc: PowerAllocation, n_samples: int, seed: int
) -> RateEstimate:
    """Sample-mean estimate of E[log2(1 + sum_k d_k |g_k|^2)], entries at scale sigma.

    Rejects a budget, n_t and sigma without headroom, as secrecy_capacity does.
    """
    _check_headroom(max(alloc.budget, alloc.n_t), sigma)
    _check_mc_samples(n_samples)
    chunk = _quad_form_chunks(
        sigma, STREAM_GENERIC, (alloc.as_array(),), alloc.n_t, seed, _kernels.log_rate
    )
    (((mean, se),),) = channel.stream_moments((chunk,), n_samples)
    return RateEstimate(mean=mean, std_error=se, n_samples=n_samples, seed=seed)


def _mc_rates(
    groups: Sequence[tuple[ChannelModel, Sequence[NDArray[np.float64]], EvalMethod]]
) -> list[list[RateEstimate]]:
    """The secrecy rate at each allocation in ds of each (model, ds, method)
    group by its Monte Carlo route (checks done by caller), from one
    stream_moments call over groups that share n_samples. Each chunk is drawn
    once and serves its group's allocations. A direct group's h and g are one
    chunk fn each, so the pool runs their chunks side by side; one fn drawing
    both runs them in series (at n_t=64 a call is one chunk per stream), and was slower."""
    fns = []
    for model, ds, method in groups:
        if method.tag is MethodTag.DIRECT_MC:
            draws = ((model.sigma_h, STREAM_LEGITIMATE), (model.sigma_g, STREAM_EAVESDROPPER))
            kernel = _kernels.log_rate
        else:
            draws = ((model.sigma_g, STREAM_EAVESDROPPER),)
            kernel = functools.partial(_kernels.coupled_integrand, a=model.a)
        fns += [_quad_form_chunks(sigma, stream, ds, model.n_t, method.seed, kernel)
                for sigma, stream in draws]
    moments = iter(channel.stream_moments(fns, groups[0][2].n_samples))
    out = []
    for _, _, method in groups:
        estimate = functools.partial(RateEstimate, n_samples=method.n_samples, seed=method.seed)
        if method.tag is MethodTag.DIRECT_MC:
            rates_h, rates_g = next(moments), next(moments)
            out.append([estimate(mean_h - mean_g, math.hypot(se_h, se_g))
                        for (mean_h, se_h), (mean_g, se_g) in zip(rates_h, rates_g)])
        else:
            out.append([estimate(mean, se) for mean, se in next(moments)])
    return out


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
    return _mc_rates([(model, (alloc.as_array(),), EvalMethod.direct_mc(n_samples, seed))])[0][0]


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
    return _mc_rates([(model, (alloc.as_array(),), EvalMethod.coupled_mc(n_samples, seed))])[0][0]


def _sum_antennas(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """np.sum over x's first axis, with the bits np.sum gives that axis as the
    last one of a C-contiguous block; x may be overwritten.

    Adds whole slabs x[k] in numpy's pairwise_sum order: left to right below
    8 terms; up to 128 terms, 8 running sums, each added to left to right (as
    np.add.reduce adds along a leading axis), folded as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest left to right; above
    128, the two halves split at a multiple of 8. So each add runs over whole
    contiguous slabs, where np.sum over a last axis of n_t terms runs one inner
    loop of n_t elements per output.
    """
    n = x.shape[0]
    if n > 128:
        half = n // 2 - n // 2 % 8
        out = _sum_antennas(x[:half])
        out += _sum_antennas(x[half:])
        return out
    out, tail = x[0], 1
    if n >= 8:
        tail = n - n % 8
        r = x[:8]
        if tail > 8:
            r = np.add.reduce(x[:tail].reshape(tail // 8, 8, *x.shape[1:]), axis=0)
        r[0::2] += r[1::2]
        r[0::4] += r[2::4]
        out = r[0]
        out += r[4]
    for k in range(tail, n):
        out += x[k]
    return out


def _antenna_first(v: NDArray[np.float64], c: NDArray[np.float64]) -> NDArray[np.float64]:
    """v[..., k, None] * c for each antenna k of the (..., n) rows v, as one
    C-contiguous block with the antenna axis first."""
    return np.multiply(v.transpose(-1, *range(v.ndim - 1))[..., None], c, order="C")


@functools.lru_cache(maxsize=16)
def _mgf_rule(last: int) -> tuple[NDArray[np.float64], ...]:
    """The MGF rule of last + 1 explicit nodes, as read-only arrays: its nodes s,
    the weights of the rules of step h and 2h, e^{-s}, and the gradient's
    weights e^{-s} s weight."""
    h = _MGF_STEP
    s = np.exp(_MGF_TOP - h * np.arange(last + 1))
    s = np.concatenate((s, s[-1] * _MGF_TAIL_AT))
    weight = np.full(s.size, h)  # the rule of step h: its nodes and its tail node
    weight[-2:] = (_MGF_TAIL_WEIGHT[0], 0.0)
    coarse = np.zeros(s.size)  # the rule of step 2h: the even nodes and its own tail node
    coarse[:-2:2] = 2 * h
    coarse[-1] = _MGF_TAIL_WEIGHT[1]
    decay = np.exp(-s)
    rule = (s, weight, coarse, decay, decay * s * weight)
    for a in rule:
        a.flags.writeable = False
    return rule


def _mgf_rate(
    d: NDArray[np.float64], var_h: float, var_g: float, *, grad: bool = False, count: int = 1,
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
    bit. After s = e^u the rate is int e^{-s} [M_g - M_h] du, with
    M_g - M_h formed as M_g * (-expm1(L_g - L_h)),
    L = sum_k log1p(s sigma^2 d_k), so it keeps full relative accuracy where
    the two transforms nearly coincide.

    Each entry of d stands for count antennas, in L and in the rule's row sum:
    the uniform allocation is [P/n_t] with count n_t, one log1p per node.
    Only rate-only calls pass a count.

    A row's rate can differ from its own single-row call by a few ulps, for
    two reasons. The whole call shares one rule, that of its largest row sum
    and the larger of var_h and var_g. And each rate is f @ weight on a
    (..., nodes) block f: on a 2-D f that is a BLAS gemv, whose sum order
    differs from that of the 1-D dot of a single row.

    The arrays are antenna-first: the log1p terms of the two transforms, h and
    g, are one C-contiguous (n_t, 2, ..., nodes) block, so every elementwise
    step and each add of the antenna sum runs over long contiguous slabs.
    _sum_antennas adds the slabs in numpy's pairwise order, so the bits are
    those of np.sum over the last axis of a (..., nodes, n_t) block. The
    rule's arrays are built once per node count and cached (_mgf_rule).
    """
    c = max(var_h, var_g) * count * float(d.sum(axis=-1).max())
    last = 2 * math.ceil((_MGF_TOP + math.log(max(c, 1.0)) + _MGF_DEPTH) / (2 * _MGF_STEP))
    s, weight, coarse, decay, w = _mgf_rule(last)
    # x[k, j] = s (var_h, var_g)[j] d_k: both transforms side by side
    x = _antenna_first(np.multiply.outer((var_h, var_g), d), s)
    # the gradient's matmuls take 1/(1+x) as C-contiguous (..., nodes, n_t)
    # operands, so they run the BLAS calls, and give the bits, of that layout
    inverse = np.add(x.transpose(*range(1, x.ndim), 0), 1.0, order="C") if grad else None
    log = _sum_antennas(np.log1p(x, out=x))
    if count != 1:
        log *= count
    log_h, log_g = log
    f = decay * np.exp(-log_g) * -np.expm1(log_g - log_h)
    rate = f @ weight / _LN2
    rate_coarse = f @ coarse / _LN2
    err = np.maximum(np.abs(rate - rate_coarse), _EPS * (np.abs(f) @ weight) / _LN2)
    dr = None
    if grad:
        # the nodes' sums of w M / (1 + x_k), per transform
        p_h, p_g = (w * np.exp(-log))[..., None, :] @ np.divide(1.0, inverse, out=inverse)
        # dR/dd_k = (1/ln 2) int e^{-s} s [var_h M_h/(1+x_h,k) - var_g M_g/(1+x_g,k)] du
        dr = (var_h * p_h - var_g * p_g)[..., 0, :] / _LN2
    return rate, err, dr, last + 1


# Frullani's integral E ln q0 - E ln q1 = int (M1(s) - M0(s)) ds/s, for two
# allocations of one sum S, on a trapezoid rule in u = ln s. M1 - M0 is
# analytic for |Im u| < pi, and on |Im u| <= pi/2, where
# |1 + s c| >= max(1, |s| c), it keeps the bounds below, so the error falls
# as exp(-pi^2/step), as for the MGF rule: ~1e-17 at step 1/4. (At step 1/2,
# ~1e-9, it erred by 1.4e-12 bits on an 8-antenna pair.) With no e^{-s}
# factor, the nodes run far past s = e^TOP. Below: the s^m coefficient of
# M = prod_k 1/(1 + s var d_k) is at most (var S)^m, and the rows' equal sums
# cancel its s^0 and s^1 terms, so for var S s <= e^-LOW,
# |M1 - M0| <= 2.1 (var S s)^2 and the tail below is within 1.1 e^{-2 LOW}
# nats. Above: |M1 - M0| <= max(M0, M1) <= 1/(s m), m = var times the smaller
# row maximum, so past s m = e^HIGH the tail is within e^-HIGH nats. LOW = 20
# and HIGH = 37 put both below 1e-16 nats: they are bounds, not settings.
_GAP_STEP, _GAP_LOW, _GAP_HIGH = 0.25, 20.0, 37.0


def _log_gap(d: NDArray[np.float64], var: float) -> float:
    """E log2(g^H D0 g) - E log2(g^H D1 g) for the rows D0, D1 of d, which have
    one sum, and entries of g of variance var, by Frullani's integral (see the
    rule above). M1 - M0 is formed as M1 * -expm1(L1 - L0), as _mgf_rate forms
    M_g - M_h, and the arrays are antenna-first, as there."""
    top = _GAP_HIGH - math.log(var * float(d.max(axis=-1).min()))
    bottom = -_GAP_LOW - math.log(var * float(d.sum(axis=-1).max()))
    u = top - _GAP_STEP * np.arange(math.ceil((top - bottom) / _GAP_STEP) + 1)
    x = _antenna_first(d, var * np.exp(u))
    log0, log1 = _sum_antennas(np.log1p(x, out=x))
    return float(np.exp(-log1) @ -np.expm1(log1 - log0)) * _GAP_STEP / _LN2


def ergodic_log_rate_quadrature(sigma: float, total_power: float, n_t: int) -> float:
    """Deterministic E[log2(1 + (P/n_t) ||g||^2)], entries of g at scale sigma.

    Uniform allocation is implied: each antenna carries total_power/n_t, held
    as one entry with the count n_t.
    P = 0 returns exactly 0; negative P is rejected, and so are a P, n_t and
    sigma without headroom, as in secrecy_capacity.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    _check_count(n_t, "n_t", 1)
    if not (math.isfinite(total_power) and total_power >= 0):
        raise ValueError(f"total_power must be finite and >= 0, got {total_power}")
    if total_power == 0:
        return 0.0
    _check_headroom(max(total_power, n_t), sigma)
    return float(_mgf_rate(np.array([total_power / n_t]), sigma * sigma, 0.0, count=n_t)[0])


def _check_mc_route(model: ChannelModel, alloc: PowerAllocation, n_samples: int) -> None:
    """The checks of a Monte Carlo route given a model and an allocation:
    at least two samples, one allocation entry per antenna, and headroom."""
    _check_mc_samples(n_samples)
    if alloc.n_t != model.n_t:
        raise ValueError(f"allocation has {alloc.n_t} entries but the model has n_t={model.n_t}")
    _check_power(model, alloc.budget)


def _check_power(model: ChannelModel, P: float) -> None:
    """The routes' and the optimizer's headroom check at total power P on model."""
    _check_headroom(max(P, model.n_t), max(model.sigma_h, model.sigma_g))


def _check_headroom(scale: float, sigma: float) -> None:
    """Reject a largest entry scale sigma that is not finite and positive, or whose
    draws or rule nodes could overflow: _HEADROOM * scale * sigma^2 must be finite.
    The routes and the optimizer pass max(P, n_t); the ordering probes s * max(sum(d), 1)."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if not math.isfinite(_HEADROOM * scale * (sigma * sigma)):
        raise ValueError(
            f"scale * sigma^2 must stay finite with headroom {_HEADROOM:g}, "
            f"got scale={scale}, sigma={sigma}"
        )


def secrecy_capacity(model: ChannelModel, P: float, method: EvalMethod) -> RateEstimate:
    """Secrecy capacity at total power P under the selected evaluation method.

    Uses the uniform allocation (optimal under statistical-only transmitter
    knowledge). Returns exactly 0 when sigma_h <= sigma_g or P = 0. Otherwise
    rejects a P, n_t and sigmas whose draws or rule nodes could overflow: those
    where _HEADROOM * max(P, n_t) * max(sigma_h^2, sigma_g^2) is not finite.
    """
    return _capacities([(model, (P,), method)])[0][0]


def _capacities(
    groups: Sequence[tuple[ChannelModel, Sequence[float], EvalMethod]]
) -> list[list[RateEstimate]]:
    """secrecy_capacity(model, P, method) for each P of each (model, powers,
    method) group, with the same bits; the groups share one n_samples.

    The Monte Carlo routes draw each chunk once for every power of its group
    (common random numbers), but form and reduce each power's values on their
    own, so no result depends on the other powers; all groups go to one
    _mc_rates reduce. quad makes one single-row _mgf_rate call per power, as a
    shared rule would move ulps. Each group's row starts as clamps, and only its
    live powers are evaluated into it, at the uniform allocation held as its one
    entry P / n_t with the count n_t: no array of n_t entries is built.
    """
    if len({method.n_samples for _, _, method in groups}) != 1:
        raise ValueError("the groups of one call must share one n_samples")
    out: list[list[RateEstimate]] = []
    mc_groups, mc_slots = [], []  # each Monte Carlo group, and its row and live slots
    for model, powers, method in groups:
        for P in powers:
            if not (math.isfinite(P) and P >= 0):
                raise ValueError(f"P must be finite and >= 0, got {P}")
        # a clamp evaluates nothing: one "node" for quadrature, the requested count for MC
        count = 1 if method.tag is MethodTag.QUADRATURE else method.n_samples
        clamp = RateEstimate(mean=0.0, std_error=0.0, n_samples=count, seed=method.seed)
        row = [clamp] * len(powers)
        out.append(row)
        live = [i for i, P in enumerate(powers) if P > 0 and model.sigma_h > model.sigma_g]
        if live:
            _check_power(model, max(powers))
            allocs = [np.array([powers[i] / model.n_t]) for i in live]
            if method.tag is MethodTag.QUADRATURE:
                for i, d in zip(live, allocs):
                    mean, err, _, nodes = _mgf_rate(
                        d, model.sigma_h**2, model.sigma_g**2, count=model.n_t
                    )
                    row[i] = RateEstimate(float(mean), float(err), nodes, method.seed)
            else:
                mc_groups.append((model, allocs, method))
                mc_slots.append((row, live))
    if mc_groups:
        for (row, live), estimates in zip(mc_slots, _mc_rates(mc_groups)):
            for i, estimate in zip(live, estimates):
                row[i] = estimate
    return out


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

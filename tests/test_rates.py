"""Rate estimators: cross-route agreement, quadrature accuracy, clamps, asymptotes."""
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import expn

from misosec import (
    ChannelModel,
    EvalMethod,
    PowerAllocation,
    asymptote_high_snr,
    asymptote_large_nt,
    ergodic_log_rate_mc,
    ergodic_log_rate_quadrature,
    secrecy_capacity,
    secrecy_rate_coupled_mc,
    secrecy_rate_direct_mc,
)
from misosec import _kernels, channel, grad_estimate
from misosec.channel import (
    CHUNK,
    STREAM_EAVESDROPPER,
    STREAM_GENERIC,
    STREAM_LEGITIMATE,
    _chunk_rng,
    _chunk_rows,
)
from misosec.optimize import _grad_objective
from misosec.rates import (
    _GAMMA_MIN_NT,
    _MGF_DEPTH,
    _MGF_STEP,
    _MGF_TAIL_AT,
    _MGF_TAIL_WEIGHT,
    _MGF_TOP,
    MethodTag,
    _mgf_rate,
    _mgf_rule,
    _sum_antennas,
)

# E[log2(1+X)] for X ~ Exp(1): e*E1(1)/ln 2, evaluated independently ahead of time
SINGLE_ANTENNA_UNIT_RATE = 0.8603473822708868
# log2(11/3.5), the many-antenna limit at P=10, scales 1 and 0.5
LARGE_NT_LIMIT = 1.6520766965796931


def test_quadrature_single_antenna_closed_form():
    value = ergodic_log_rate_quadrature(1.0, 1.0, 1)
    assert abs(value - SINGLE_ANTENNA_UNIT_RATE) < 5e-9


def test_quadrature_zero_power_is_exactly_zero():
    assert ergodic_log_rate_quadrature(1.0, 0.0, 4) == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigma": 1.0, "total_power": -1.0, "n_t": 2},
        {"sigma": 0.0, "total_power": 1.0, "n_t": 2},
        {"sigma": 1.0, "total_power": 1.0, "n_t": 0},
        {"sigma": 1.0, "total_power": math.nan, "n_t": 2},
        # no headroom: sigma^2 or the power overflows the rule's nodes
        {"sigma": 1e200, "total_power": 1.0, "n_t": 1},
        {"sigma": 1.0, "total_power": 1e308, "n_t": 4},
        # not an integer count: these raised numpy's TypeError from np.full
        {"sigma": 1.0, "total_power": 1.0, "n_t": True},
        {"sigma": 1.0, "total_power": 1.0, "n_t": 2.5},
    ],
)
def test_quadrature_rejects_bad_inputs(kwargs):
    with pytest.raises(ValueError):
        ergodic_log_rate_quadrature(**kwargs)


def test_quadrature_takes_a_numpy_integer_n_t():
    quad = ergodic_log_rate_quadrature
    assert quad(1.0, 4.0, np.int64(4)) == quad(1.0, 4.0, 4)


def _closed_form_log_rate(sigma, P, n_t):
    # E[log2(1 + (P/n_t) ||g||^2)] = e^x sum_{k<=n_t} E_k(x) / ln 2, x = n_t/(P sigma^2);
    # x is small on the grids below, so e^x does not overflow
    x = n_t / (P * sigma * sigma)
    return math.exp(x) * sum(expn(k, x) for k in range(1, n_t + 1)) / math.log(2.0)


def _integral_rate(d, sigma_h, sigma_g):
    """Hamdi's MGF integral for allocation d by adaptive scipy quadrature in u = ln s."""
    c_h = sigma_h**2 * np.asarray(d, dtype=np.float64)
    c_g = sigma_g**2 * np.asarray(d, dtype=np.float64)

    def integrand(u):
        s = math.exp(u)
        log_h = float(np.sum(np.log1p(s * c_h)))
        log_g = float(np.sum(np.log1p(s * c_g)))
        return math.exp(-s - log_g) * -math.expm1(log_g - log_h)

    scales = sorted({-math.log(c) for c in np.concatenate([c_h, c_g]) if c > 0} | {0.0})
    value, _ = integrate.quad(
        integrand, min(scales) - 40.0, 4.0, points=scales, limit=500, epsabs=1e-15, epsrel=1e-13
    )
    return value / math.log(2.0)


@pytest.mark.parametrize("n_t", [1, 2])
def test_quadrature_matches_closed_form_at_high_snr(n_t):
    for db in (20.0, 30.0, 40.0, 50.0, 60.0):
        P = 10.0 ** (db / 10.0)
        for sigma in (1.0, 0.5):
            value = ergodic_log_rate_quadrature(sigma, P, n_t)
            assert value == pytest.approx(_closed_form_log_rate(sigma, P, n_t), abs=1e-12)
        cap = secrecy_capacity(ChannelModel(n_t, 1.0, 0.5), P, EvalMethod.quadrature())
        exact = _closed_form_log_rate(1.0, P, n_t) - _closed_form_log_rate(0.5, P, n_t)
        assert cap.mean == pytest.approx(exact, abs=1e-12)


def test_quadrature_matches_integral_up_to_128_antennas():
    for n_t in (1, 2, 4, 8, 64, 128, 256):
        for db in (-20.0, 0.0, 20.0, 40.0, 60.0):
            P = 10.0 ** (db / 10.0)
            for ratio in (0.1, 0.5, 0.9, 0.999):
                est = secrecy_capacity(ChannelModel(n_t, 1.0, ratio), P, EvalMethod.quadrature())
                ref = _integral_rate(np.full(n_t, P / n_t), 1.0, ratio)
                assert abs(est.mean - ref) <= 1e-12, (n_t, db, ratio, est.mean, ref)


@pytest.mark.parametrize(
    "d",
    [(6.0, 3.0, 1.0), (4.0, 0.0, 0.5, 0.5), (1e3, 1e-3, 10.0), tuple(np.linspace(0.0, 2.0, 17))],
)
@pytest.mark.parametrize("ratio", [0.5, 0.999])
def test_quadrature_matches_integral_for_any_allocation(d, ratio):
    rate, _, _, _ = _mgf_rate(np.array(d), 1.0, ratio**2)
    assert abs(rate - _integral_rate(d, 1.0, ratio)) <= 1e-12


def test_quadrature_error_estimate_bounds_the_error():
    for n_t in (1, 2, 8, 128):
        for db in (-20.0, 0.0, 30.0, 60.0):
            P = 10.0 ** (db / 10.0)
            for ratio in (0.1, 0.9):
                est = secrecy_capacity(ChannelModel(n_t, 1.0, ratio), P, EvalMethod.quadrature())
                err = abs(est.mean - _integral_rate(np.full(n_t, P / n_t), 1.0, ratio))
                assert est.std_error >= err - 1e-14
                assert 0.0 < est.std_error <= 1e-6  # reported, unlike the old rule's 0
                assert est.n_samples > 1  # the node count


@pytest.mark.parametrize("n_t, db, ratio", [(1, 55.0, 0.9), (2, 50.0, 0.1), (4, 54.0, 0.99)])
def test_quadrature_error_estimate_never_claims_an_exact_answer(n_t, db, ratio):
    # here the rules of step h and 2h round to the same double; the estimate
    # is floored at the rounding error of the weighted sum, one eps of the rate
    P = 10.0 ** (db / 10.0)
    est = secrecy_capacity(ChannelModel(n_t, 1.0, ratio), P, EvalMethod.quadrature())
    eps = np.finfo(np.float64).eps
    assert est.std_error >= eps * est.mean > 0.0
    # each row of a batch gets its own floor
    rates, errs, _, _ = _mgf_rate(np.array([[P / n_t] * n_t, [1e-3] * n_t]), 1.0, ratio**2)
    assert np.all(errs >= eps * rates)


def _node_by_node_rule(d, var_h, var_g):
    """The rule without its tail node, every sum exact: step 1/4 from u = 4 down
    to 40 below -ln max(max var * d_k, 1). Returns the rate and the single-rate
    gradient terms of var_h and var_g, whose difference is the gradient."""
    bottom = -math.log(max(max(var_h, var_g) * float(np.max(d)), 1.0)) - 40.0
    s = np.exp(4.0 - 0.25 * np.arange(math.ceil((4.0 - bottom) / 0.25) + 1))
    scale = 0.25 / math.log(2.0)
    x_h, x_g = s[:, None] * (var_h * d), s[:, None] * (var_g * d)
    log_h, log_g = np.sum(np.log1p(x_h), axis=-1), np.sum(np.log1p(x_g), axis=-1)
    f = np.exp(-s) * np.exp(-log_g) * -np.expm1(log_g - log_h)

    def term(var, log_m, x):
        w = (np.exp(-s) * s * np.exp(-log_m))[:, None] / (1.0 + x)
        return var * scale * np.array([math.fsum(col) for col in w.T])

    return scale * math.fsum(f), term(var_h, log_h, x_h), term(var_g, log_g, x_g)


_TAIL_GRID_NT = [1, 2, 4, 8, 64, 128, 256]
_TAIL_GRID_DB = np.arange(-60.0, 61.0, 10.0)


@pytest.mark.parametrize("n_t", _TAIL_GRID_NT)
def test_tail_node_matches_the_node_by_node_rule(n_t):
    # the rule without its tail node stops at e^-40 of the peak, which drops up
    # to n_t e^-40 of the rate (5 eps at n_t=256); the tail node keeps it
    rng = np.random.default_rng(n_t)
    eps = np.finfo(np.float64).eps
    for P in 10.0 ** (_TAIL_GRID_DB / 10.0):
        for d in (np.full(n_t, P / n_t), P * rng.dirichlet(np.ones(n_t))):
            for ratio in (0.1, 0.5, 0.9, 0.999):
                rate, _, grad, _ = _mgf_rate(d, 1.0, ratio**2, grad=True)
                ref, term_h, term_g = _node_by_node_rule(d, 1.0, ratio**2)
                assert abs(rate - ref) <= 8 * eps * abs(ref), (P, ratio, d)
                terms = np.abs(term_h) + np.abs(term_g)
                assert np.all(np.abs(grad - (term_h - term_g)) <= 4 * eps * terms)


def test_tail_node_keeps_at_most_129_explicit_nodes():
    # the count depends on the largest row sum only: 73 nodes up to a unit
    # scale, 129 at 60 dB; the rule without its tail node took 177-233 here
    for n_t in _TAIL_GRID_NT:
        for P in 10.0 ** (_TAIL_GRID_DB / 10.0):
            nodes = _mgf_rate(np.full(n_t, P / n_t), 1.0, 0.25)[3]
            assert 73 <= nodes <= 129, (n_t, P, nodes)


@pytest.mark.parametrize("n_t", [1, 4, 8, 128])
@pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9, 0.999])
def test_batched_rows_match_single_row_calls(n_t, ratio):
    # one random allocation per power from -20 to 60 dB, all in one batch
    rng = np.random.default_rng(n_t)
    powers = 10.0 ** (np.arange(-20.0, 61.0, 20.0) / 10.0)
    D = powers[:, None] * rng.dirichlet(np.ones(n_t), size=powers.size)
    rates, errs, grads, nodes = _mgf_rate(D, 1.0, ratio**2, grad=True)
    assert rates.shape == errs.shape == powers.shape and grads.shape == D.shape
    singles = [_mgf_rate(row, 1.0, ratio**2, grad=True) for row in D]
    assert nodes == max(single[3] for single in singles)
    # the batch's longer node rule reorders numpy's pairwise sums, so rows may
    # move by a few ulps: of the rate, and of the two single-rate gradient
    # terms whose difference is the secrecy gradient
    eps = np.finfo(np.float64).eps
    for row, rate, err, grad, (rate1, _, grad1, _) in zip(D, rates, errs, grads, singles):
        assert abs(rate - rate1) <= 4 * eps * abs(rate1)
        terms = np.abs(_mgf_rate(row, 1.0, 0.0, grad=True)[2]) + np.abs(
            _mgf_rate(row, ratio**2, 0.0, grad=True)[2]
        )
        assert np.all(np.abs(grad - grad1) <= 4 * eps * terms)
        assert err >= abs(rate - _integral_rate(row, 1.0, ratio)) - 1e-14


@pytest.mark.parametrize("n_t", [1, 4])
def test_quadrature_keeps_relative_accuracy_at_tiny_power(n_t):
    # first order in P: E[log(1 + q)] ~ E[q] = sigma^2 P; M_g - M_h cancels naively here
    P = 1e-12
    est = secrecy_capacity(ChannelModel(n_t, 1.0, 0.5), P, EvalMethod.quadrature())
    assert est.mean == pytest.approx((1.0 - 0.25) * P / math.log(2.0), rel=1e-6, abs=0.0)
    single = ergodic_log_rate_quadrature(1.0, P, n_t)
    assert single == pytest.approx(P / math.log(2.0), rel=1e-6, abs=0.0)


@pytest.mark.parametrize("d", [(6.0, 3.0, 1.0), (4.0, 0.0, 0.5, 0.5), (0.5, 2.0, 1.0, 3.0, 0.25)])
def test_exact_gradient_matches_central_differences(d):
    d = np.array(d)
    _, _, grad, _ = _mgf_rate(d, 1.0, 0.3, grad=True)
    h = 1e-5
    for k in range(d.size):
        up, dn = d.copy(), d.copy()
        up[k] += h
        dn[k] -= h
        if dn[k] < 0:  # one-sided on the boundary
            fd = (_mgf_rate(up, 1.0, 0.3)[0] - _mgf_rate(d, 1.0, 0.3)[0]) / h
            assert fd == pytest.approx(grad[k], abs=1e-5)
        else:
            fd = (_mgf_rate(up, 1.0, 0.3)[0] - _mgf_rate(dn, 1.0, 0.3)[0]) / (2 * h)
            assert fd == pytest.approx(grad[k], abs=1e-9)


def test_exact_gradient_matches_mc_gradient():
    model = ChannelModel(n_t=4, sigma_h=1.0, sigma_g=0.5)
    d = np.array([3.0, 0.5, 0.0, 1.5])
    _, _, exact, _ = _mgf_rate(d, 1.0, 0.25, grad=True)
    mc, mc_se = _grad_objective(model, d, 200_000, seed=12)
    assert np.all(np.abs(mc - exact) <= 4.0 * mc_se)
    assert np.array_equal(mc, grad_estimate(model, PowerAllocation(tuple(d), 5.0), 200_000, 12))


def test_import_leaves_scipy_out():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, misosec; assert 'scipy' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_mc_matches_closed_form_single_antenna():
    alloc = PowerAllocation(d=(1.0,), budget=1.0)
    est = ergodic_log_rate_mc(1.0, alloc, 400_000, seed=5)
    assert abs(est.mean - SINGLE_ANTENNA_UNIT_RATE) < 3 * est.std_error
    # same seed, same estimate
    assert ergodic_log_rate_mc(1.0, alloc, 400_000, seed=5).mean == est.mean


def test_mc_zero_allocation_is_exactly_zero():
    alloc = PowerAllocation(d=(0.0, 0.0), budget=1.0)
    est = ergodic_log_rate_mc(1.0, alloc, 1000, seed=0)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_mc_positive_for_nonzero_allocation():
    uniform = ergodic_log_rate_mc(1.0, PowerAllocation(d=(0.5, 0.5), budget=1.0), 20000, 1)
    spike = ergodic_log_rate_mc(1.0, PowerAllocation(d=(1.0, 0.0), budget=1.0), 20000, 1)
    assert uniform.mean > 0 and spike.mean > 0


def test_mc_rejects_bad_inputs():
    alloc = PowerAllocation(d=(1.0,), budget=1.0)
    with pytest.raises(ValueError):
        ergodic_log_rate_mc(1.0, alloc, 0, seed=0)
    with pytest.raises(ValueError):
        ergodic_log_rate_mc(-1.0, alloc, 10, seed=0)
    # one sample has no spread to estimate a std error from
    model = ChannelModel(n_t=1, sigma_h=1.0, sigma_g=0.5)
    for route in (ergodic_log_rate_mc, secrecy_rate_direct_mc, secrecy_rate_coupled_mc,
                  grad_estimate):
        first = 1.0 if route is ergodic_log_rate_mc else model
        for n_samples in (1, 2.5, True):
            with pytest.raises(ValueError, match="n_samples"):
                route(first, alloc, n_samples, seed=0)
    # 2.5 was accepted, then raised TypeError from range inside the route
    for make in (EvalMethod.coupled_mc, EvalMethod.direct_mc):
        for n_samples in (2.5, True, 2**70):
            with pytest.raises(ValueError, match="n_samples"):
                make(n_samples)
    # no headroom: sigma^2 or the budget overflows the draws
    for sigma, budget in ((1e200, 1.0), (1.0, 1e308)):
        with pytest.raises(ValueError, match="finite"):
            ergodic_log_rate_mc(sigma, PowerAllocation.uniform(4, budget), 1000, seed=0)
    for model, budget in ((ChannelModel(2, 1.0, 0.5), 1e308), (ChannelModel(2, 1e154, 1e153), 10.0)):
        for route in (secrecy_rate_direct_mc, secrecy_rate_coupled_mc, grad_estimate):
            with pytest.raises(ValueError, match="finite"):
                route(model, PowerAllocation.uniform(2, budget), 1000, seed=0)


def test_mc_routes_reject_an_allocation_for_another_n_t():
    # a two-entry allocation on a four-antenna model returned the two-antenna rate
    model = ChannelModel(4, 1.0, 0.5)
    for route in (secrecy_rate_direct_mc, secrecy_rate_coupled_mc, grad_estimate):
        with pytest.raises(ValueError, match="n_t"):
            route(model, PowerAllocation.uniform(2, 10.0), 1000, 0)


_BIT_GRID_DB = np.arange(-20.0, 61.0, 10.0)


@pytest.mark.parametrize("n_t", [1, 2, 4, 8, 64, 256])
def test_rate_only_calls_keep_the_bits_of_the_gradient_call(n_t):
    # skipping the gradient must not move a rate or an error estimate by one
    # bit; the capacity routes are the rate-only call on the one entry P/n_t
    rng = np.random.default_rng(n_t)
    for P in 10.0 ** (_BIT_GRID_DB / 10.0):
        uniform, entry = np.full(n_t, P / n_t), np.array([P / n_t])
        batch = P * rng.dirichlet(np.ones(n_t), size=3)
        for ratio in (0.1, 0.5, 0.9, 0.999):
            est = secrecy_capacity(ChannelModel(n_t, 1.0, ratio), P, EvalMethod.quadrature())
            rate, err, _, nodes = _mgf_rate(entry, 1.0, ratio**2, count=n_t)
            assert (est.mean, est.std_error, est.n_samples) == (rate, err, nodes)
            for d in (uniform, batch):
                rate, err, grad, nodes = _mgf_rate(d, 1.0, ratio**2, grad=True)
                rate1, err1, grad1, nodes1 = _mgf_rate(d, 1.0, ratio**2)
                assert grad.shape == d.shape and grad1 is None and nodes1 == nodes
                assert np.array_equal(rate1, rate) and np.array_equal(err1, err)
        single = ergodic_log_rate_quadrature(1.0, P, n_t)
        assert single == _mgf_rate(entry, 1.0, 0.0, count=n_t)[0]


@pytest.mark.parametrize("n_t", [1, 2, 3, 4, 8, 64])
def test_several_var_g_keep_the_bits_of_one_call_each(n_t):
    # var_h = 1 is the largest variance, so every call below has one rule;
    # the shared M_h moves no bit
    rng = np.random.default_rng(n_t)
    var_g = [0.25, 0.81, 0.0, 0.5]
    for d in (np.full(n_t, 4.0 / n_t), 4.0 * rng.dirichlet(np.ones(n_t), size=7)):
        for grad in (False, True):
            rates, errs, grads, nodes = _mgf_rate(d, 1.0, var_g, grad=grad)
            assert rates.shape == errs.shape == (len(var_g), *d.shape[:-1])
            assert grads is None if not grad else grads.shape == (len(var_g), *d.shape)
            for j, v in enumerate(var_g):
                rate, err, g, nodes1 = _mgf_rate(d, 1.0, v, grad=grad)
                assert nodes1 == nodes
                assert rates[j].tobytes() == np.asarray(rate).tobytes()
                assert errs[j].tobytes() == np.asarray(err).tobytes()
                assert not grad or grads[j].tobytes() == g.tobytes()


def test_several_var_g_share_the_rule_of_the_largest_variance():
    d = np.array([3.0, 1.0])
    rates, _, _, nodes = _mgf_rate(d, 1.0, [0.25, 50.0])
    assert nodes == _mgf_rate(d, 1.0, 50.0)[3] > _mgf_rate(d, 1.0, 0.25)[3]
    assert rates[1] == _mgf_rate(d, 1.0, 50.0)[0]


@pytest.mark.parametrize("n_t", [1, 2, 3, 8, 64])
def test_transform_blocks_move_no_bit(monkeypatch, n_t):
    # a block takes as many transforms as fit in _MGF_BLOCK elements: one
    # transform per block, two, or all of them give the same bits
    rng = np.random.default_rng(n_t)
    calls = [
        (4.0 * rng.dirichlet(np.ones(n_t), size=size), var_h, var_g)
        for size in ((), (5,), (2, 3))
        for var_h, var_g in ((1.0, 0.25), (1.0, [0.25, 0.81, 0.0]), (0.5, [2.0]))
    ]

    def evaluate():
        return [
            [np.asarray(a).tobytes() for a in _mgf_rate(d, var_h, var_g, grad=grad)[:3] if a is not None]
            for d, var_h, var_g in calls
            for grad in (False, True)
        ]

    expected = evaluate()
    one_transform = calls[0][0].size * (_mgf_rate(calls[0][0], 1.0, 0.25)[3] + 2)
    for block in (1, 2 * one_transform, 2**40):
        monkeypatch.setattr("misosec.rates._MGF_BLOCK", block)
        assert evaluate() == expected, block


def test_several_var_g_hold_one_transform_block_at_a_time():
    # a verify rate probe's call: 150 eight-antenna rows, M_h and two M_g,
    # each transform a (8, 150, 81) block of 0.74 MiB. One block with the
    # three transforms' antenna sums peaks near 1.4 blocks; two blocks alive
    # at once would pass 2
    d = 4.0 * np.random.default_rng(0).dirichlet(np.ones(8), size=150)
    block = 8 * d.size * (_mgf_rate(d, 1.0, 0.25)[3] + 2)
    tracemalloc.start()
    try:
        _mgf_rate(d, 1.0, [0.25, 0.81])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * block


_SUM_NT = [*range(1, 10), 15, 16, 17, 64, 127, 128, 129, 200, 256, 257, 300]


@pytest.mark.parametrize("n_t", _SUM_NT)
def test_short_axis_fold_sums_with_the_bits_of_np_sum(n_t):
    # the MGF rule's log sums, antenna-first: (n_t, nodes) for one allocation,
    # (n_t, k, nodes) for a batch. The reference is np.sum over the last axis of
    # the C-contiguous (..., nodes, n_t) block: np.sum over a moveaxis view of
    # the slabs adds them left to right, not pairwise. Above 128 terms numpy
    # splits the sum in halves; above 64 the largest batch shrinks to stay near 10 MB.
    rng = np.random.default_rng(n_t)
    big = (400, 75) if n_t <= 64 else (40, 75)
    for shape in ((73, n_t), (129, n_t), (1, 83, n_t), (37, 81, n_t), (*big, n_t)):
        x = np.log1p(rng.exponential(size=shape) * 10.0 ** rng.uniform(-6.0, 6.0, size=shape))
        slabs = np.ascontiguousarray(np.moveaxis(x, -1, 0))
        assert np.array_equal(_sum_antennas(slabs), np.sum(x, axis=-1))


def _nodes_last_mgf_rate(d, var_h, var_g):
    """_mgf_rate formulated on (..., nodes, n_t) blocks summed by np.sum, with
    a fresh rule: the reference whose bits the antenna-first evaluator keeps.
    Returns the rate, error estimate, gradient and node count."""
    h = _MGF_STEP
    c = max(var_h, var_g) * float(np.max(np.sum(d, axis=-1)))
    last = 2 * math.ceil((_MGF_TOP + math.log(max(c, 1.0)) + _MGF_DEPTH) / (2 * h))
    s = np.exp(_MGF_TOP - h * np.arange(last + 1))
    s = np.concatenate((s, s[-1] * _MGF_TAIL_AT))
    weight = np.full(s.size, h)
    weight[-2:] = (_MGF_TAIL_WEIGHT[0], 0.0)
    coarse = np.zeros(s.size)
    coarse[:-2:2] = 2 * h
    coarse[-1] = _MGF_TAIL_WEIGHT[1]
    x_h = s[:, None] * (var_h * d[..., None, :])
    x_g = s[:, None] * (var_g * d[..., None, :])
    log_h = np.sum(np.log1p(x_h), axis=-1)
    log_g = np.sum(np.log1p(x_g), axis=-1)
    decay = np.exp(-s)
    m_g = np.exp(-log_g)
    f = decay * m_g * -np.expm1(log_g - log_h)
    ln2, eps = math.log(2.0), np.finfo(np.float64).eps
    rate = f @ weight / ln2
    err = np.maximum(np.abs(rate - f @ coarse / ln2), eps * (np.abs(f) @ weight) / ln2)
    w = decay * s * weight
    m_h = np.exp(-log_h)
    dr = (var_h * ((w * m_h)[..., None, :] @ (1.0 / (1.0 + x_h)))
          - var_g * ((w * m_g)[..., None, :] @ (1.0 / (1.0 + x_g))))[..., 0, :]
    return rate, err, dr / ln2, last + 1


_ORACLE_NT = [*range(1, 18), 31, 32, 33, 63, 64, 65, 127, 128, 129, 136, 200, 255, 256]


@pytest.mark.parametrize("n_t", _ORACLE_NT)
def test_mgf_rate_keeps_the_bits_of_the_nodes_last_layout(n_t):
    # holds on any numpy build, where pinned hex values would not; the batch
    # of 100 rows stops at 64 antennas to keep its blocks near 5 MB
    rng = np.random.default_rng(n_t)
    shapes = [(), (1,), (7,), (2, 3)] + ([(100,)] if n_t <= 64 else [])
    for shape in shapes:
        scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(*shape, 1))
        d = scale * rng.dirichlet(np.ones(n_t), size=shape or None)
        for var_h, var_g in ((1.0, 0.25), (1.0, 0.998), (2.0, 0.0), (0.5, 3.0)):
            rate, err, grad, nodes = _nodes_last_mgf_rate(d, var_h, var_g)
            got = _mgf_rate(d, var_h, var_g, grad=True)
            assert got[3] == nodes and got[2].shape == d.shape
            rate1, err1, none, nodes1 = _mgf_rate(d, var_h, var_g)
            assert none is None and nodes1 == nodes
            for a, b in zip((*got[:3], rate1, err1), (rate, err, grad, rate, err)):
                assert np.shape(a) == np.shape(b), (shape, var_h, var_g)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (shape, var_h, var_g)


def test_mgf_rule_cache_is_read_only_bounded_and_exact():
    _mgf_rule.cache_clear()
    rule = _mgf_rule(78)
    assert _mgf_rule(78) is rule
    for cached, fresh in zip(rule, _mgf_rule.__wrapped__(78)):
        assert cached.tobytes() == fresh.tobytes() and cached.shape == fresh.shape
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 1.0
    maxsize = _mgf_rule.cache_info().maxsize
    assert maxsize is not None
    for last in range(2, 2 * (maxsize + 4), 2):
        _mgf_rule(last)
    assert _mgf_rule.cache_info().currsize == maxsize
    # an evicted rule is built again with the same bits
    assert _mgf_rule(78)[0].tobytes() == rule[0].tobytes()


def test_direct_zero_mean_at_equal_scales():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=1.0)
    alloc = PowerAllocation(d=(3.0, 1.0), budget=4.0)
    est = secrecy_rate_direct_mc(model, alloc, 100_000, seed=3)
    assert abs(est.mean) < 3 * est.std_error


def test_coupled_identically_zero_at_equal_scales():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=1.0)
    alloc = PowerAllocation(d=(3.0, 1.0), budget=4.0)
    est = secrecy_rate_coupled_mc(model, alloc, 10_000, seed=3)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_coupled_zero_allocation_exact():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.5)
    est = secrecy_rate_coupled_mc(model, PowerAllocation((0.0, 0.0), 1.0), 5000, seed=0)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_direct_and_coupled_agree():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.5)
    alloc = PowerAllocation.uniform(2, 10.0)
    direct = secrecy_rate_direct_mc(model, alloc, 200_000, seed=11)
    coupled = secrecy_rate_coupled_mc(model, alloc, 200_000, seed=11)
    assert abs(direct.mean - coupled.mean) < 3 * math.hypot(direct.std_error, coupled.std_error)


def test_coupled_variance_reduction():
    model = ChannelModel(n_t=4, sigma_h=1.0, sigma_g=0.5)
    alloc = PowerAllocation.uniform(4, 10.0)
    direct = secrecy_rate_direct_mc(model, alloc, 100_000, seed=2)
    coupled = secrecy_rate_coupled_mc(model, alloc, 100_000, seed=2)
    assert coupled.std_error < direct.std_error


def test_quadrature_agrees_with_mc():
    model = ChannelModel(n_t=4, sigma_h=1.0, sigma_g=0.5)
    exact = secrecy_capacity(model, 10.0, EvalMethod.quadrature())
    mc = secrecy_capacity(model, 10.0, EvalMethod.coupled_mc(200_000, seed=4))
    assert exact.std_error <= 1e-6  # the rule's error estimate
    assert abs(exact.mean - mc.mean) < 3 * mc.std_error


@pytest.mark.parametrize("n_t", [1, 4, 64])
@pytest.mark.parametrize("method", [EvalMethod.coupled_mc, EvalMethod.direct_mc])
def test_error_bars_are_calibrated_against_quadrature(method, n_t):
    # over 200 seeds, z = (mean - quad) / std_error should look standard normal:
    # an error bar too small or too large shows as a spread away from 1
    for ratio in (0.5, 0.9):
        model = ChannelModel(n_t=n_t, sigma_h=1.0, sigma_g=ratio)
        exact = secrecy_capacity(model, 10.0, EvalMethod.quadrature()).mean
        z = np.array([
            (est.mean - exact) / est.std_error
            for est in (secrecy_capacity(model, 10.0, method(2000, seed)) for seed in range(200))
        ])
        assert 0.85 <= np.std(z, ddof=1) <= 1.15, (ratio, np.std(z, ddof=1))
        assert abs(np.mean(z)) < 0.25, (ratio, np.mean(z))
        assert np.max(np.abs(z)) < 5.0, (ratio, np.max(np.abs(z)))


def test_std_error_scales_as_inverse_sqrt_n():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.5)
    alloc = PowerAllocation.uniform(2, 10.0)
    small = secrecy_rate_coupled_mc(model, alloc, 50_000, seed=6)
    large = secrecy_rate_coupled_mc(model, alloc, 200_000, seed=7)
    ratio = large.std_error / small.std_error
    assert 0.4 < ratio < 0.6  # ideal 0.5


def _summed_chunks(sigma, n_t, count, seed, stream):
    """The summed layout by hand: per chunk, one standard_gamma(n_t) draw per row times sigma^2."""
    for index, rows in _chunk_rows(count):
        yield _chunk_rng(seed, stream, index).standard_gamma(n_t, rows) * (sigma * sigma)


def _serial_mean_se(fn, chunks):
    moments = _kernels.RunningMoments()
    for chunk in chunks:
        moments.add(fn(chunk))
    return moments.mean_se()


@pytest.mark.parametrize("count", [2, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("n_t", [_GAMMA_MIN_NT, 64])
def test_equal_allocation_routes_merge_gamma_chunks_serially(n_t, count):
    # bit for bit: q = (P/n_t) * sigma^2 Gamma(n_t), chunks merged one by one in order
    model = ChannelModel(n_t=n_t, sigma_h=1.0, sigma_g=0.5)
    alloc = PowerAllocation.uniform(n_t, 10.0)
    w = alloc.d[0]
    seed = 9

    def stream(sigma, tag):
        return _summed_chunks(sigma, n_t, count, seed, tag)

    coupled = secrecy_rate_coupled_mc(model, alloc, count, seed)
    ref = _serial_mean_se(
        lambda g: _kernels.coupled_integrand(g * w, model.a), stream(0.5, STREAM_EAVESDROPPER)
    )
    assert (coupled.mean, coupled.std_error) == ref

    direct = secrecy_rate_direct_mc(model, alloc, count, seed)
    mean_h, se_h = _serial_mean_se(
        lambda g: _kernels.log_rate(g * w), stream(1.0, STREAM_LEGITIMATE)
    )
    mean_g, se_g = _serial_mean_se(
        lambda g: _kernels.log_rate(g * w), stream(0.5, STREAM_EAVESDROPPER)
    )
    assert (direct.mean, direct.std_error) == (mean_h - mean_g, math.hypot(se_h, se_g))

    single = ergodic_log_rate_mc(0.7, alloc, count, seed)
    ref = _serial_mean_se(lambda g: _kernels.log_rate(g * w), stream(0.7, STREAM_GENERIC))
    assert (single.mean, single.std_error) == ref


def test_direct_route_draws_each_chunk_of_each_stream_once(monkeypatch, caller_only):
    # h and g are two streams of 3 chunks each, every chunk drawn once, through
    # the module's own _draw_abs2 so that a patched sampler sees every draw
    # (the calling thread runs every chunk: a forked worker would not see it)
    calls = []
    draw = channel._draw_abs2

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(channel, "_draw_abs2", counted)
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.5)
    secrecy_rate_direct_mc(model, PowerAllocation.uniform(2, 10.0), 2 * CHUNK + 5, seed=3)
    assert len(calls) == 6
    for tag in (STREAM_LEGITIMATE, STREAM_EAVESDROPPER):
        # args are (sigma, n_t, rows, seed, stream, index, summed)
        keys = sorted((args[3], args[5]) for args in calls if args[4] == tag)
        assert keys == [(3, 0), (3, 1), (3, 2)]


@pytest.mark.parametrize("n_t", [_GAMMA_MIN_NT, 64, 512])
def test_equal_allocation_mc_agrees_with_quadrature(n_t):
    model = ChannelModel(n_t=n_t, sigma_h=1.0, sigma_g=0.5)
    exact = secrecy_capacity(model, 10.0, EvalMethod.quadrature()).mean
    coupled = secrecy_capacity(model, 10.0, EvalMethod.coupled_mc(200_000, seed=3))
    direct = secrecy_capacity(model, 10.0, EvalMethod.direct_mc(200_000, seed=3))
    assert abs(coupled.mean - exact) < 4 * coupled.std_error
    assert abs(direct.mean - exact) < 4 * direct.std_error
    assert coupled.std_error < direct.std_error


def test_equal_allocation_memory_does_not_scale_with_antennas():
    # a per-entry CHUNK x 512 block alone would take 134 MB
    model = ChannelModel(n_t=512, sigma_h=1.0, sigma_g=0.5)
    alloc = PowerAllocation.uniform(512, 10.0)
    tracemalloc.start()
    try:
        secrecy_rate_coupled_mc(model, alloc, CHUNK, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


_HUGE_NT = 2**30


@pytest.mark.parametrize(
    "method",
    [EvalMethod.quadrature(), EvalMethod.coupled_mc(20_000, 3), EvalMethod.direct_mc(20_000, 3)],
    ids=["quad", "coupled", "direct"],
)
def test_capacity_at_2_30_antennas_runs_in_bounded_memory(method):
    # every capacity route holds the uniform allocation as one entry P/n_t with
    # its count; an array of n_t entries alone would take 8 GiB here
    model = ChannelModel(n_t=_HUGE_NT, sigma_h=1.0, sigma_g=0.5)
    tracemalloc.start()
    try:
        est = secrecy_capacity(model, 10.0, method)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    # the capacity lies (t_h^2 - t_g^2)/(2 n_t ln 2), about 2e-10 bits, below its limit
    assert abs(est.mean - asymptote_large_nt(model, 10.0)) < 1e-8 + 5 * est.std_error


def test_single_rate_quadrature_at_2_30_antennas_runs_in_bounded_memory():
    tracemalloc.start()
    try:
        rate = ergodic_log_rate_quadrature(1.0, 10.0, _HUGE_NT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert abs(rate - math.log2(11.0)) < 1e-8


def _large_nt_expansion(lam, n):
    """The terms of E ln(1 + lam X), X = Gamma(n)/n, through n^-3 (the central
    moments of X against the Taylor series of ln(1 + lam x) at x = 1), with
    t = lam/(1 + lam), and the size of the n^-4 term: the sum of its
    coefficients' magnitudes, (24/5 + 65/3 + 30 + 105/8) t^5 / n^4 and below."""
    t = lam / (1.0 + lam)
    terms = [
        math.log1p(lam),
        -t**2 / (2 * n),
        (2 * t**3 / 3 - 3 * t**4 / 4) / n**2,
        (-3 * t**4 / 2 + 4 * t**5 - 5 * t**6 / 2) / n**3,
    ]
    return terms, (24 / 5 + 65 / 3 + 30 + 105 / 8) * t**5 / n**4


@pytest.mark.parametrize("n_t", [2**k for k in range(10, 21)])
def test_quadrature_matches_the_large_nt_expansion(n_t):
    # quad against the stdlib expansion, to its truncation plus a few ulps of
    # its terms: within 3e-15 bits from n_t = 4096 on, 6.6e-14 at 1024, 30 dB
    eps = np.finfo(np.float64).eps
    for db in range(-20, 31, 5):
        P = 10.0 ** (db / 10.0)
        terms_h, size_h = _large_nt_expansion(P, n_t)
        for ratio in (0.1, 0.5, 0.9):
            terms_g, size_g = _large_nt_expansion(P * ratio**2, n_t)
            expansion = (math.fsum(terms_h) - math.fsum(terms_g)) / math.log(2)
            tol = (size_h + size_g + 8 * eps * sum(map(abs, terms_h + terms_g))) / math.log(2)
            est = secrecy_capacity(ChannelModel(n_t, 1.0, ratio), P, EvalMethod.quadrature())
            assert abs(est.mean - expansion) <= tol, (n_t, db, ratio, est.mean, expansion)
        tol = (size_h + 8 * eps * sum(map(abs, terms_h))) / math.log(2)
        rate = ergodic_log_rate_quadrature(1.0, P, n_t)
        assert abs(rate - math.fsum(terms_h) / math.log(2)) <= tol, (n_t, db, rate)


def test_std_error_matches_two_pass_at_high_snr_many_antennas():
    # at n_t=512 and 60 dB the coupled integrand spreads by ~1e-7 around ~2 bits,
    # where total_sq - n * mean^2 cancels; the merged centred sums do not
    model = ChannelModel(n_t=512, sigma_h=1.0, sigma_g=0.5)
    alloc = PowerAllocation.uniform(512, 1e6)
    n = CHUNK + 5000
    est = secrecy_rate_coupled_mc(model, alloc, n, seed=0)
    # the route's own draws: one Gamma(512) row sum per sample
    vals = np.concatenate(
        [
            _kernels.coupled_integrand(g * alloc.d[0], model.a)
            for g in _summed_chunks(model.sigma_g, 512, n, 0, STREAM_EAVESDROPPER)
        ]
    )
    two_pass = float(np.std(vals, ddof=1)) / math.sqrt(n)
    assert est.std_error == pytest.approx(two_pass, rel=1e-9)
    one_pass = math.sqrt(max(np.sum(vals * vals) - n * est.mean**2, 0.0) / (n - 1) / n)
    assert abs(one_pass / two_pass - 1.0) > 1e-5


@pytest.mark.parametrize("P", [math.inf, math.nan, -math.inf])
@pytest.mark.parametrize("tag", [MethodTag.DIRECT_MC, MethodTag.COUPLED_MC, MethodTag.QUADRATURE])
def test_capacity_rejects_non_finite_power(tag, P):
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.5)
    with pytest.raises(ValueError):
        secrecy_capacity(model, P, EvalMethod(tag=tag, n_samples=100))


@pytest.mark.parametrize(
    "sigma_h, P", [(1e154, 10.0), (1e153, 10.0), (1e153, 1e-300), (1e3, 1e305)]
)
@pytest.mark.parametrize("tag", [MethodTag.DIRECT_MC, MethodTag.COUPLED_MC, MethodTag.QUADRATURE])
def test_capacity_rejects_power_without_headroom(tag, sigma_h, P):
    # finite P and sigmas whose draws or MGF nodes could overflow
    model = ChannelModel(n_t=2, sigma_h=sigma_h, sigma_g=1.0)
    with pytest.raises(ValueError, match="finite"):
        secrecy_capacity(model, P, EvalMethod(tag=tag, n_samples=100))


@pytest.mark.parametrize("tag", [MethodTag.DIRECT_MC, MethodTag.COUPLED_MC, MethodTag.QUADRATURE])
def test_capacity_with_headroom_stays_finite(tag):
    # about the largest sigma_h the check admits at P = 10 (per-entry draws at
    # n_t=2, Gamma row sums from _GAMMA_MIN_NT on), and its clamp
    # counterpart, where nothing is drawn
    for n_t, sigma_h in ((2, 1e152), (_GAMMA_MIN_NT, 1e152), (64, 5e151), (512, 1.8e151)):
        model = ChannelModel(n_t=n_t, sigma_h=sigma_h, sigma_g=1.0)
        est = secrecy_capacity(model, 10.0, EvalMethod(tag=tag, n_samples=1000))
        assert math.isfinite(est.mean) and math.isfinite(est.std_error) and est.mean > 0
    clamp = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=1e154)
    assert secrecy_capacity(clamp, 10.0, EvalMethod(tag=tag, n_samples=100)).mean == 0.0


@pytest.mark.parametrize("tag", [MethodTag.DIRECT_MC, MethodTag.COUPLED_MC, MethodTag.QUADRATURE])
def test_headroom_counts_the_antennas(tag):
    # a Gamma(n_t) row sum is drawn at sigma^2 before P/n_t weights it, so the
    # check takes max(P, n_t): admitted at n_t=2, rejected at n_t=64
    assert secrecy_capacity(
        ChannelModel(n_t=2, sigma_h=1e152, sigma_g=1.0), 10.0, EvalMethod(tag=tag, n_samples=100)
    ).mean > 0
    with pytest.raises(ValueError, match="finite"):
        secrecy_capacity(
            ChannelModel(n_t=64, sigma_h=1e152, sigma_g=1.0), 10.0,
            EvalMethod(tag=tag, n_samples=100),
        )


@pytest.mark.parametrize("tag", [MethodTag.DIRECT_MC, MethodTag.COUPLED_MC, MethodTag.QUADRATURE])
@pytest.mark.parametrize("sigma_h, sigma_g", [(0.5, 1.0), (1.0, 1.0)])
def test_capacity_clamps_to_exact_zero(tag, sigma_h, sigma_g):
    model = ChannelModel(n_t=2, sigma_h=sigma_h, sigma_g=sigma_g)
    method = EvalMethod(tag=tag, n_samples=1000, seed=0)
    for P in (0.0, 1.0, 100.0):
        est = secrecy_capacity(model, P, method)
        assert est.mean == 0.0 and est.std_error == 0.0


def test_capacity_zero_power_exact_even_when_degraded():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.5)
    est = secrecy_capacity(model, 0.0, EvalMethod.coupled_mc(1000, seed=0))
    assert est.mean == 0.0
    with pytest.raises(ValueError):
        secrecy_capacity(model, -1.0, EvalMethod.coupled_mc(1000, seed=0))


def test_capacity_continuous_near_equal_scales():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.999999)
    est = secrecy_capacity(model, 10.0, EvalMethod.coupled_mc(100_000, seed=8))
    assert abs(est.mean) < max(3 * est.std_error, 1e-5)


def test_capacity_monotone_in_power():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.5)
    estimates = [
        secrecy_capacity(model, P, EvalMethod.coupled_mc(100_000, seed=9))
        for P in (0.1, 1.0, 10.0, 100.0)
    ]
    for lo, hi in zip(estimates, estimates[1:]):
        assert hi.mean > lo.mean - 3 * (lo.std_error + hi.std_error)


def test_capacity_decreases_with_eavesdropper_quality():
    caps = []
    for ratio in (0.1, 0.5, 0.9):
        model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=ratio)
        caps.append(secrecy_capacity(model, 10.0, EvalMethod.coupled_mc(100_000, seed=10)))
    for better, worse in zip(caps, caps[1:]):
        assert better.mean - worse.mean > 3 * (better.std_error + worse.std_error)


def test_asymptote_high_snr_values():
    assert asymptote_high_snr(ChannelModel(2, 1.0, 0.5)) == pytest.approx(2.0)
    assert asymptote_high_snr(ChannelModel(5, 1.0, 1.0)) == 0.0
    assert asymptote_high_snr(ChannelModel(1, math.sqrt(2.0), 1.0)) == pytest.approx(1.0)


def test_asymptote_large_nt_values():
    model = ChannelModel(128, 1.0, 0.5)
    assert asymptote_large_nt(model, 0.0) == 0.0
    assert asymptote_large_nt(model, 10.0) == pytest.approx(LARGE_NT_LIMIT, abs=1e-12)


def test_eval_method_validation():
    with pytest.raises(ValueError):
        EvalMethod(tag=MethodTag.COUPLED_MC, n_samples=0)
    for tag in (MethodTag.COUPLED_MC, MethodTag.DIRECT_MC):
        with pytest.raises(ValueError, match="n_samples"):
            EvalMethod(tag=tag, n_samples=1)
    assert EvalMethod(tag=MethodTag.QUADRATURE, n_samples=1).n_samples == 1  # unused there
    assert EvalMethod.coupled_mc(np.int64(10)) == EvalMethod.coupled_mc(10)
    with pytest.raises(ValueError):
        EvalMethod(tag="coupled_mc")  # enum required

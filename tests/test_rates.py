"""Rate estimators: cross-route agreement, quadrature accuracy, clamps, asymptotes."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import expn

from misosec import (
    CHUNK,
    ChannelModel,
    EvalMethod,
    MethodTag,
    PowerAllocation,
    asymptote_high_snr,
    asymptote_large_nt,
    ergodic_log_rate_mc,
    ergodic_log_rate_quadrature,
    secrecy_capacity,
    secrecy_rate_coupled_mc,
    secrecy_rate_direct_mc,
)
from misosec import _kernels, grad_estimate
from misosec.channel import STREAM_EAVESDROPPER, iter_abs2
from misosec.optimize import _grad_objective
from misosec.rates import _mgf_rate

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
    ],
)
def test_quadrature_rejects_bad_inputs(kwargs):
    with pytest.raises(ValueError):
        ergodic_log_rate_quadrature(**kwargs)


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
    for n_t in (1, 2, 4, 8, 64, 128):
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


@pytest.mark.parametrize("n_t", [1, 4, 8, 128])
@pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9, 0.999])
def test_batched_rows_match_single_row_calls(n_t, ratio):
    # one random allocation per power from -20 to 60 dB, all in one batch
    rng = np.random.default_rng(n_t)
    powers = 10.0 ** (np.arange(-20.0, 61.0, 20.0) / 10.0)
    D = powers[:, None] * rng.dirichlet(np.ones(n_t), size=powers.size)
    rates, errs, grads, nodes = _mgf_rate(D, 1.0, ratio**2)
    assert rates.shape == errs.shape == powers.shape and grads.shape == D.shape
    singles = [_mgf_rate(row, 1.0, ratio**2) for row in D]
    assert nodes == max(single[3] for single in singles)
    # the batch's longer node rule reorders numpy's pairwise sums, so rows may
    # move by a few ulps: of the rate, and of the two single-rate gradient
    # terms whose difference is the secrecy gradient
    eps = np.finfo(np.float64).eps
    for row, rate, err, grad, (rate1, _, grad1, _) in zip(D, rates, errs, grads, singles):
        assert abs(rate - rate1) <= 4 * eps * abs(rate1)
        terms = np.abs(_mgf_rate(row, 1.0, 0.0)[2]) + np.abs(_mgf_rate(row, ratio**2, 0.0)[2])
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
    _, _, grad, _ = _mgf_rate(d, 1.0, 0.3)
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
    _, _, exact, _ = _mgf_rate(d, 1.0, 0.25)
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


def test_std_error_scales_as_inverse_sqrt_n():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.5)
    alloc = PowerAllocation.uniform(2, 10.0)
    small = secrecy_rate_coupled_mc(model, alloc, 50_000, seed=6)
    large = secrecy_rate_coupled_mc(model, alloc, 200_000, seed=7)
    ratio = large.std_error / small.std_error
    assert 0.4 < ratio < 0.6  # ideal 0.5


def test_std_error_matches_two_pass_at_high_snr_many_antennas():
    # at n_t=512 and 60 dB the coupled integrand spreads by ~1e-7 around ~2 bits,
    # where total_sq - n * mean^2 cancels; the merged centred sums do not
    model = ChannelModel(n_t=512, sigma_h=1.0, sigma_g=0.5)
    alloc = PowerAllocation.uniform(512, 1e6)
    n = CHUNK + 5000
    est = secrecy_rate_coupled_mc(model, alloc, n, seed=0)
    d = alloc.as_array()
    vals = np.concatenate(
        [
            _kernels.coupled_integrand(abs2 @ d, model.a)
            for abs2 in iter_abs2(model.sigma_g, 512, n, 0, STREAM_EAVESDROPPER)
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
    with pytest.raises(ValueError):
        EvalMethod(tag="coupled_mc")  # enum required

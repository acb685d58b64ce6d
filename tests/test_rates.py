"""Rate estimators: cross-route agreement, quadrature accuracy, clamps, asymptotes."""
import math

import numpy as np
import pytest

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
from misosec import _kernels
from misosec.channel import STREAM_EAVESDROPPER, iter_abs2

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
        {"sigma": 1.0, "total_power": 1.0, "n_t": 2, "n_nodes": 4},
    ],
)
def test_quadrature_rejects_bad_inputs(kwargs):
    with pytest.raises(ValueError):
        ergodic_log_rate_quadrature(**kwargs)


def test_quadrature_converges_with_node_count():
    # hardest corner of the desk grid: small shape, larger power
    ref = ergodic_log_rate_quadrature(1.0, 10.0, 1, 512)
    errors = [
        abs(ergodic_log_rate_quadrature(1.0, 10.0, 1, n) - ref) / ref for n in (16, 64, 192)
    ]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 2e-9


def test_quadrature_stable_at_many_antennas():
    # the rule must stay finite and accurate where Gamma(n_t) overflows
    v192 = ergodic_log_rate_quadrature(1.0, 10.0, 128, 192)
    v384 = ergodic_log_rate_quadrature(1.0, 10.0, 128, 384)
    assert math.isfinite(v192)
    assert abs(v192 - v384) / v384 < 1e-10


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
    assert exact.std_error == 0.0
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
        EvalMethod(tag=MethodTag.QUADRATURE, n_nodes=4)
    with pytest.raises(ValueError):
        EvalMethod(tag="coupled_mc")  # enum required

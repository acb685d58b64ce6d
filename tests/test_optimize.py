"""Optimizer: simplex projection, gradient oracle agreement, ascent behavior."""
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from misosec import (
    ChannelModel,
    EvalMethod,
    OptimizerConfig,
    OptimizerTrace,
    PowerAllocation,
    grad_estimate,
    optimize_allocation,
    project_to_simplex,
    secrecy_capacity,
    secrecy_rate_coupled_mc,
)
from misosec.optimize import _grad_objective

REF_MODEL = ChannelModel(n_t=4, sigma_h=1.0, sigma_g=0.5)
REF_POWER = 4.0


# --- projection ---------------------------------------------------------


def test_projection_hand_cases():
    assert np.allclose(project_to_simplex([2.0, 0.0], 1.0), [1.0, 0.0])
    assert np.allclose(project_to_simplex([0.6, 0.6], 1.0), [0.5, 0.5])


def test_projection_on_simplex_point_unchanged():
    v = np.array([0.25, 0.75])
    out = project_to_simplex(v, 1.0)
    assert out[0] == 0.25 and out[1] == 0.75


@pytest.mark.parametrize("seed", range(5))
def test_projection_properties(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=8) * 3.0
    p = project_to_simplex(v, 2.0)
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 2.0) < 1e-12
    # order preserving
    order = np.argsort(v)
    assert np.all(np.diff(p[order]) >= -1e-15)
    # idempotent
    assert np.allclose(project_to_simplex(p, 2.0), p, atol=1e-15)


def test_projection_rejects_bad_inputs():
    with pytest.raises(ValueError):
        project_to_simplex([], 1.0)
    with pytest.raises(ValueError):
        project_to_simplex([1.0], 0.0)


@pytest.mark.parametrize(
    "v, shape", [([[1.0, 2.0], [3.0, 4.0]], "(2, 2)"), ([[0.5, 0.5]], "(1, 2)"), (3.0, "()")]
)
def test_projection_names_the_shape_of_input_that_is_not_1d(v, shape):
    # a point already on the simplex, like [[0.5, 0.5]], is rejected too
    with pytest.raises(ValueError, match=re.escape(f"1-D vector, got shape {shape}")):
        project_to_simplex(v, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_start_is_named(bad):
    with pytest.raises(ValueError, match=r"finite, got v\[0\] = "):
        project_to_simplex([bad, 1.0], 4.0)
    with pytest.raises(ValueError, match="finite"):
        optimize_allocation(ChannelModel(2, 1.0, 0.5), 4.0, start=[bad, 1.0])


# --- gradient ------------------------------------------------------------


def test_gradient_refuses_degenerate_regime():
    with pytest.raises(ValueError):
        grad_estimate(
            ChannelModel(2, 1.0, 1.0), PowerAllocation.uniform(2, 1.0), 1000, seed=0
        )


def test_gradient_flat_at_uniform_allocation():
    # symmetry: all coordinates share one expectation at the uniform point
    d = PowerAllocation.uniform(4, REF_POWER).as_array()
    grad, grad_se = _grad_objective(REF_MODEL, d, 100_000, seed=0)
    assert np.all(grad > 0)
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(grad[i] - grad[j]) <= 3.0 * (grad_se[i] + grad_se[j])


def _coupled_at(model, d, n_samples, seed):
    alloc = PowerAllocation(d=tuple(d), budget=float(sum(d)))
    return secrecy_rate_coupled_mc(model, alloc, n_samples, seed).mean


@pytest.mark.parametrize("seed", range(10))
def test_gradient_matches_finite_difference_interior(seed):
    # same seed means common draws, so the difference is pure curvature
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.5)
    base = np.array([6.0, 4.0])
    h = 1e-3
    grad = grad_estimate(model, PowerAllocation(tuple(base), 10.0), 20_000, seed)
    for k in range(2):
        up = base.copy()
        up[k] += h
        dn = base.copy()
        dn[k] -= h
        fd = (_coupled_at(model, up, 20_000, seed) - _coupled_at(model, dn, 20_000, seed)) / (
            2 * h
        )
        assert abs(fd - grad[k]) < 1e-7


def test_gradient_matches_one_sided_difference_on_boundary():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.5)
    base = np.array([10.0, 0.0])
    h = 1e-3
    grad = grad_estimate(model, PowerAllocation(tuple(base), 10.0), 20_000, seed=0)
    up = base.copy()
    up[1] += h
    fd = (_coupled_at(model, up, 20_000, 0) - _coupled_at(model, base, 20_000, 0)) / h
    assert abs(fd - grad[1]) < 1e-3


# --- objective -----------------------------------------------------------


def test_objective_zero_allocation_exact():
    est = secrecy_rate_coupled_mc(REF_MODEL, PowerAllocation((0.0,) * 4, REF_POWER), 1000, seed=0)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_objective_prefers_uniform_over_spike():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.5)
    uniform = secrecy_rate_coupled_mc(model, PowerAllocation.uniform(2, 10.0), 200_000, seed=1)
    spike = secrecy_rate_coupled_mc(model, PowerAllocation((10.0, 0.0), 10.0), 200_000, seed=1)
    gap = uniform.mean - spike.mean
    assert gap > 3 * math.hypot(uniform.std_error, spike.std_error)


def test_objective_symmetric_under_permutation():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.5)
    fwd = secrecy_rate_coupled_mc(model, PowerAllocation((7.0, 3.0), 10.0), 200_000, seed=2)
    rev = secrecy_rate_coupled_mc(model, PowerAllocation((3.0, 7.0), 10.0), 200_000, seed=2)
    assert abs(fwd.mean - rev.mean) < 3 * math.hypot(fwd.std_error, rev.std_error)


# --- ascent --------------------------------------------------------------

SMALL_CONFIG = OptimizerConfig(max_iters=80, seed=0)


@pytest.fixture(scope="module")
def small_trace():
    return optimize_allocation(
        REF_MODEL, REF_POWER, SMALL_CONFIG, start=PowerAllocation.uniform(4, REF_POWER)
    )


def test_ascent_from_uniform_start_stays_near_uniform(small_trace):
    assert small_trace.converged
    dev = max(abs(x - REF_POWER / 4) for x in small_trace.final.d)
    assert dev <= 0.01 * REF_POWER


def test_trace_invariants(small_trace):
    assert len(small_trace.iterates) == len(small_trace.objective_values)
    assert len(small_trace.iterates) <= SMALL_CONFIG.max_iters + 1
    for alloc in small_trace.iterates:
        assert all(x >= 0 for x in alloc.d)
        assert abs(sum(alloc.d) - REF_POWER) <= 1e-12 * REF_POWER
    assert small_trace.final is small_trace.iterates[-1]


def test_ascent_is_deterministic(small_trace):
    again = optimize_allocation(
        REF_MODEL, REF_POWER, SMALL_CONFIG, start=PowerAllocation.uniform(4, REF_POWER)
    )
    assert again.final.d == small_trace.final.d
    assert again.converged == small_trace.converged


def test_ascent_from_random_start_reaches_uniform():
    trace = optimize_allocation(REF_MODEL, REF_POWER, OptimizerConfig(seed=3))
    dev = max(abs(x - REF_POWER / 4) for x in trace.final.d)
    assert dev <= 0.01 * REF_POWER


def test_eight_antenna_start_that_hit_the_iteration_cap_converges():
    # the stochastic ascent this replaced stopped at its cap 0.124 from uniform here
    P = 10.0
    trace = optimize_allocation(ChannelModel(8, 1.0, 0.7), P, OptimizerConfig(seed=3796490668))
    assert trace.converged
    assert max(abs(x - P / 8) for x in trace.final.d) <= 0.01 * P


@pytest.mark.parametrize("P", [1e-3, 1e4])
def test_ascent_reaches_uniform_at_low_and_high_power(P):
    # at low power R(d) is nearly linear in d, so a step sized by the gradient
    # alone would barely move and stop early
    for seed in range(3):
        trace = optimize_allocation(REF_MODEL, P, OptimizerConfig(seed=seed))
        assert trace.converged
        assert max(abs(x - P / 4) for x in trace.final.d) <= 0.01 * P


def test_objective_values_are_exact_and_ascend():
    trace = optimize_allocation(REF_MODEL, REF_POWER, OptimizerConfig(seed=5))
    means = [obj.mean for obj in trace.objective_values]
    assert all(hi >= lo for lo, hi in zip(means, means[1:]))
    exact = secrecy_capacity(REF_MODEL, REF_POWER, EvalMethod.quadrature()).mean
    assert abs(means[-1] - exact) <= 1e-6
    assert all(obj.std_error <= 1e-6 for obj in trace.objective_values)


def test_single_antenna_is_immediate():
    trace = optimize_allocation(ChannelModel(1, 1.0, 0.5), 2.0, SMALL_CONFIG)
    assert trace.converged
    assert trace.final.d == (2.0,)


def test_ascent_rejects_bad_inputs():
    with pytest.raises(ValueError):
        optimize_allocation(ChannelModel(2, 1.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        optimize_allocation(REF_MODEL, 0.0)
    with pytest.raises(ValueError):
        optimize_allocation(REF_MODEL, REF_POWER, SMALL_CONFIG, start=(1.0, 1.0, 1.0))
    # an iteration cap that is not an integer failed later, in range
    for max_iters in (2.5, True):
        with pytest.raises(ValueError, match="max_iters"):
            OptimizerConfig(max_iters=max_iters)


# --- config and trace types ----------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_iters": 0},
        {"max_iters": -1},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        OptimizerConfig(**kwargs)


def test_config_has_two_settings():
    assert [f.name for f in fields(OptimizerConfig)] == ["max_iters", "seed"]
    # the movement tolerance is _TOL_SHARE * P, not a setting
    with pytest.raises(TypeError):
        OptimizerConfig(tol=1e-3)
    # grad_samples is a class constant for the benchmark replay, not a setting
    with pytest.raises(TypeError):
        OptimizerConfig(grad_samples=1)


def test_trace_rejects_mismatched_lengths():
    alloc = PowerAllocation.uniform(2, 1.0)
    with pytest.raises(ValueError):
        OptimizerTrace(iterates=(alloc,), objective_values=(), converged=True)


def test_trace_rejects_off_simplex_iterate():
    bad = PowerAllocation((0.2, 0.2), 1.0)  # valid allocation, but sum != budget
    good = secrecy_rate_coupled_mc(REF_MODEL, PowerAllocation.uniform(4, 4.0), 10, seed=0)
    with pytest.raises(ValueError):
        OptimizerTrace(iterates=(bad,), objective_values=(good,), converged=True)

"""Majorization, MGF dominance, complete monotonicity, and the expectation lemma."""
import math

import numpy as np
import pytest

from misosec import (
    OrderCheckReport,
    Witness,
    cm_derivative,
    lt_order_gap,
    majorizes,
    mgf_quadratic_form,
    random_majorization_pair,
    verify_lemma_LT_implies_expectation,
)
from misosec import _kernels
from misosec.channel import iter_abs2
from misosec.ordering import (
    MAX_DERIVATIVE_ORDER,
    _cm_derivatives,
    _lemma_margins,
    _random_majorization_pairs,
)

# log2(4) - log2(3): the MGF gap of (1,1) vs (2,0) at s = sigma = 1
HAND_LT_GAP = 0.4150374992788439


# --- majorization ---------------------------------------------------------


def test_majorizes_hand_cases():
    assert majorizes([3.0, 1.0], [2.0, 2.0])
    assert not majorizes([2.0, 2.0], [3.0, 1.0])
    assert majorizes([2.0, 2.0], [2.0, 2.0])  # reflexive


def test_spike_majorizes_everything_uniform_majorizes_nothing():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 8):
        d = 4.0 * rng.dirichlet(np.ones(n))
        spike = [4.0] + [0.0] * (n - 1)
        uniform = [4.0 / n] * n
        assert majorizes(spike, d)
        assert majorizes(d, uniform)


def test_majorizes_rejects_bad_inputs():
    with pytest.raises(ValueError):
        majorizes([1.0, 2.0], [1.0, 1.0])  # sums differ
    with pytest.raises(ValueError):
        majorizes([1.0, 2.0], [3.0])  # length mismatch


def test_majorizes_rejects_a_nan_entry():
    # the nan compared false everywhere, so the answer read False
    with pytest.raises(ValueError, match="finite"):
        majorizes([math.nan, 1.0], [1.0, 1.0])


def test_majorizes_takes_negative_entries():
    # majorization is defined on all real vectors, unlike the probes' allocations
    assert majorizes([3.0, -1.0], [1.0, 1.0])
    assert not majorizes([1.0, 1.0], [3.0, -1.0])


# --- MGF -------------------------------------------------------------------


def test_mgf_hand_values():
    assert mgf_quadratic_form([0.0, 0.0], 1.0, 1.0) == 1.0
    assert mgf_quadratic_form([1.0], 1.0, 1.0) == 0.5


def test_mgf_decreasing_in_s():
    values = [mgf_quadratic_form([1.0, 2.0], 1.0, s) for s in (0.1, 0.5, 1.0, 5.0)]
    assert all(hi > lo for hi, lo in zip(values, values[1:]))


def test_mgf_matches_monte_carlo():
    d = np.array([1.0, 2.0])
    s = 0.3
    exact = mgf_quadratic_form(d, 1.0, s)
    total = 0.0
    total_sq = 0.0
    n = 1_000_000
    for abs2 in iter_abs2(1.0, 2, n, seed=42, stream=2):
        vals = np.exp(-s * (abs2 @ d))
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    mean = total / n
    se = math.sqrt(max(total_sq - n * mean * mean, 0.0) / (n - 1) / n)
    assert abs(mean - exact) < 3 * se


@pytest.mark.parametrize(
    "d, sigma, s",
    [
        ([-0.1, 1.0], 1.0, 1.0), ([1.0], 0.0, 1.0), ([1.0], 1.0, 0.0),
        ([1.0, 1.0], math.inf, 1.0), ([1.0], 1.0, math.inf),
        # finite, but s sigma^2 d overflows: the product read 0.0
        ([1.0, 1.0], 1e200, 1.0), ([1.0, 1.0], 1.0, 1e308),
    ],
)
def test_mgf_rejects_bad_inputs(d, sigma, s):
    with pytest.raises(ValueError):
        mgf_quadratic_form(d, sigma, s)


# --- LT-order gap ----------------------------------------------------------


def test_lt_gap_zero_when_equal():
    assert lt_order_gap([1.0, 3.0], [1.0, 3.0], 1.0, 0.7) == 0.0


def test_lt_gap_hand_value():
    gap = lt_order_gap([1.0, 1.0], [2.0, 0.0], 1.0, 1.0)
    assert gap == pytest.approx(HAND_LT_GAP, abs=1e-12)


def test_lt_gap_nonnegative_on_random_majorization_pairs():
    rng = np.random.default_rng(7)
    s_grid = np.logspace(-3, 3, 20)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        d_star, d = random_majorization_pair(n, 4.0, rng)
        for s in s_grid:
            assert lt_order_gap(d_star, d, 1.0, float(s)) >= -1e-12


def test_lt_gap_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lt_order_gap([1.0, 1.0], [3.0, 0.0], 1.0, 1.0)  # sums differ
    with pytest.raises(ValueError):
        lt_order_gap([-1.0, 3.0], [1.0, 1.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        lt_order_gap([1.0, 1.0], [2.0, 0.0], 1.0, 0.0)
    # an inf, or a finite sigma or s whose product with d overflows (nan and -inf gaps)
    for sigma, s in ((math.inf, 1.0), (1.0, math.inf), (1e200, 1.0), (1.0, 1e308)):
        with pytest.raises(ValueError, match="finite"):
            lt_order_gap([1.0, 1.0], [2.0, 0.0], sigma, s)


def test_lt_gap_rejects_allocations_of_different_lengths():
    # the sums agree, so the gap of a 2- and a 3-entry allocation read 0.848
    with pytest.raises(ValueError, match="one length"):
        lt_order_gap([2.0, 2.0], [4.0, 0.0, 0.0], 1.0, 1.0)


# --- complete monotonicity ---------------------------------------------------


def test_cm_derivative_hand_values():
    assert cm_derivative(0.25, 1.0, 0) == pytest.approx(0.3, abs=1e-15)
    assert cm_derivative(0.25, 1.0, 1) == pytest.approx(-0.39, abs=1e-15)


@pytest.mark.parametrize("a", [0.0, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", range(0, 11))
def test_cm_derivative_alternates_sign(a, n):
    for x in np.logspace(-3, 3, 13):
        signed = (-1.0) ** n * cm_derivative(a, float(x), n)
        assert signed > 0.0


def test_cm_derivative_vanishes_as_a_approaches_one():
    a = 1.0 - 1e-6
    for x in (1.0, 2.0, 10.0):
        for n in range(0, 11):
            assert abs(cm_derivative(a, x, n)) <= math.factorial(n + 1) * 2e-6


@pytest.mark.parametrize("a", [0.0, 0.5])
@pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
def test_cm_derivative_consistent_with_finite_difference(a, x):
    h = 1e-3 * x
    for n in range(0, 10):
        fd = (cm_derivative(a, x + h, n) - cm_derivative(a, x - h, n)) / (2 * h)
        exact = cm_derivative(a, x, n + 1)
        assert abs(fd - exact) <= 1e-4 * abs(exact)


@pytest.mark.parametrize("a", [0.0, 0.1, 0.5, 0.9, 0.999999])
def test_cm_derivative_matches_mpmath(a):
    # every order against the closed form in 60-digit arithmetic; subtracting
    # (a+x)^-(n+1) - (1+x)^-(n+1) in float64 lost up to 1e-7 relative on this grid
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    x_grid = np.logspace(-3, 3, 25)
    orders = np.arange(MAX_DERIVATIVE_ORDER + 1)
    batched = _cm_derivatives(a, x_grid[:, None], orders)
    for x, row in zip(x_grid.tolist(), batched.tolist()):
        for n, value in enumerate(row):
            am, xm = mpmath.mpf(a), mpmath.mpf(x)
            exact = (-1) ** n * mpmath.factorial(n) * ((am + xm) ** -(n + 1) - (1 + xm) ** -(n + 1))
            assert abs(value - exact) <= 1e-14 * abs(exact), (x, n, value, exact)
            assert cm_derivative(a, x, n) == value


@pytest.mark.parametrize(
    "a, x, n",
    [(1.0, 1.0, 0), (-0.1, 1.0, 0), (0.5, 0.0, 0), (0.5, 1.0, -1), (0.5, 1.0, 21), (0.5, 1.0, 2.5)],
)
def test_cm_derivative_rejects_bad_inputs(a, x, n):
    with pytest.raises(ValueError):
        cm_derivative(a, x, n)


@pytest.mark.parametrize("x, n", [(1e-20, 20), (1e-300, 1)])
def test_cm_derivative_rejects_an_x_whose_value_overflows(x, n):
    # n! x^-(n+1) is past float64's range; these returned inf after an overflow warning
    with pytest.raises(ValueError, match=f"x={x}"):
        cm_derivative(0.0, x, n)


def test_cm_derivative_keeps_a_value_near_the_top_of_the_range():
    # 1! (1e-150)^-2 = 1e300 is representable, though the step past it is not;
    # the batched form takes no such step, so it raises no overflow warning
    assert cm_derivative(0.0, 1e-150, 1) == pytest.approx(-1e300, rel=1e-15)
    assert _cm_derivatives(0.0, 1e-150, 1) == pytest.approx(-1e300, rel=1e-15)
    assert cm_derivative(0.0, 1e-300, 0) == pytest.approx(1e300, rel=1e-15)


# --- random pair generator ---------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_random_pair_is_a_majorization_pair(seed):
    rng = np.random.default_rng(seed)
    d_star, d = random_majorization_pair(6, 3.0, rng)
    assert majorizes(d, d_star)
    assert np.all(d_star >= 0) and np.all(d >= 0)
    assert d_star.sum() == pytest.approx(3.0, rel=1e-12)
    assert d.sum() == pytest.approx(3.0, rel=1e-12)


def test_random_pair_rejects_bad_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_majorization_pair(0, 1.0, rng)
    with pytest.raises(ValueError):
        random_majorization_pair(2, 0.0, rng)
    # an inf total gave a pair of [inf, inf] vectors
    for total in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            random_majorization_pair(2, total, rng)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_batched_pairs_start_with_the_single_pair(n):
    # a batch of one takes the same draws as the single call, so the streams stay in step
    rng, batch_rng = np.random.default_rng(n), np.random.default_rng(n)
    for _ in range(3):
        d_star, d = random_majorization_pair(n, 4.0, rng)
        d_stars, ds = _random_majorization_pairs(n, 4.0, batch_rng, 1)
        assert np.array_equal(d_stars[0], d_star) and np.array_equal(ds[0], d)
    # a batch draws its simplex points first, so its first point is the single call's
    d_star, d = random_majorization_pair(n, 4.0, np.random.default_rng(n))
    d_stars, ds = _random_majorization_pairs(n, 4.0, np.random.default_rng(n), 100)
    assert d_stars.shape == ds.shape == (100, n)
    assert np.array_equal(ds[0], d)
    for d_star, d in zip(d_stars, ds):
        assert majorizes(d, d_star)
        assert d.sum() == pytest.approx(4.0, rel=1e-12)


# --- expectation lemma --------------------------------------------------------


def test_lemma_equal_allocations_give_exact_zero():
    report = verify_lemma_LT_implies_expectation(
        [2.0, 2.0], [2.0, 2.0], sigma=1.0, a=0.25, n_samples=1000, seed=0
    )
    assert report.min_margin == 0.0


def test_lemma_spike_vs_uniform_strictly_positive():
    d1 = [10.0, 0.0]
    d2 = [5.0, 5.0]
    a = 0.25
    n = 1_000_000
    report = verify_lemma_LT_implies_expectation(d1, d2, sigma=1.0, a=a, n_samples=n, seed=9)
    assert report.holds and report.min_margin > 0

    # independent recomputation of the paired difference, raw numpy
    dv1 = np.array(d1)
    dv2 = np.array(d2)
    total = 0.0
    total_sq = 0.0
    for abs2 in iter_abs2(1.0, 2, n, seed=9, stream=2):
        q1 = abs2 @ dv1
        q2 = abs2 @ dv2
        diff = (np.log2(a + q2) - np.log2(1 + q2)) - (np.log2(a + q1) - np.log2(1 + q1))
        total += float(diff.sum())
        total_sq += float((diff * diff).sum())
    mean = total / n
    se = math.sqrt(max(total_sq - n * mean * mean, 0.0) / (n - 1) / n)
    assert mean - 3 * se > 0  # expectation gap is strict, beyond noise
    assert report.min_margin == pytest.approx(mean + 3 * se, rel=1e-12)


@pytest.mark.parametrize("a", [0.25, 0.9, 0.999])
def test_lemma_difference_is_accurate_per_sample(a):
    # each value against f(q2) - f(q1) in 50-digit arithmetic on the same draws;
    # the draws and d are exact inputs, so the kernel may err by a few roundings
    # of q1, q2 - q1 and the ratio: a few eps of the value plus the rounding of
    # q2 - q1, whose terms may cancel. Subtracting four logs errs by about
    # eps * |log2(a + q)| instead, far more than the value near a = 1.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    d1, d2 = np.array([3.0, 1.0, 0.0]), np.array([1.5, 1.0, 0.5])
    abs2 = next(iter_abs2(1.0, 3, 300, seed=4, stream=2))
    values = _kernels.lemma_difference(abs2, d1, d2, a)
    eps = np.finfo(np.float64).eps
    for row, value in zip(abs2, values):
        q1 = mpmath.fsum(mpmath.mpf(float(x)) * float(w) for x, w in zip(row, d1))
        q2 = mpmath.fsum(mpmath.mpf(float(x)) * float(w) for x, w in zip(row, d2))
        f = lambda q: mpmath.log((a + q) / (1 + q), 2)  # noqa: E731
        exact = f(q2) - f(q1)
        # the value's scale, and that of the rounding of the cancelling sum q2 - q1
        spread = (1 - a) * float(np.abs(d2 - d1) @ row) / float((1 + q2) * (a + q1)) / math.log(2)
        assert abs(value - exact) <= 8 * eps * (abs(exact) + spread), (a, row, value, exact)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("a", [0.0, 0.25, 0.999])
def test_lemma_difference_keeps_the_bits_of_its_expression(n, a):
    d1 = np.linspace(3.0, 0.0, n)
    d2 = np.full(n, d1.mean())
    abs2 = next(iter_abs2(1.0, n, 5000, seed=6, stream=2))
    q1 = _kernels.quad_form(abs2, d1)
    dq = _kernels.quad_form(abs2, d2 - d1)
    expected = np.log1p((1.0 - a) * dq / ((1.0 + q1 + dq) * (a + q1))) / math.log(2.0)
    assert np.array_equal(_kernels.lemma_difference(abs2, d1, d2, a), expected)


def test_batched_lemma_gives_each_a_the_bits_of_the_probe():
    d1, d2 = [4.0, 0.0], [2.0, 2.0]
    batch = _lemma_margins(d1, d2, 1.0, (0.25, 0.0), 100_000, 5)
    for (margin, _, _), a in zip(batch, (0.25, 0.0)):
        report = verify_lemma_LT_implies_expectation(d1, d2, 1.0, a, 100_000, 5)
        assert report.min_margin == margin


def test_lemma_handles_a_zero_edge():
    report = verify_lemma_LT_implies_expectation(
        [3.0, 1.0], [2.0, 2.0], sigma=1.0, a=0.0, n_samples=100_000, seed=3
    )
    assert report.holds


def test_lemma_rejects_bad_inputs():
    with pytest.raises(ValueError, match="precondition"):
        verify_lemma_LT_implies_expectation([5.0, 5.0], [10.0, 0.0], 1.0, 0.25, 100, 0)
    with pytest.raises(ValueError):
        verify_lemma_LT_implies_expectation([5.0, 5.0], [9.0, 0.0], 1.0, 0.25, 100, 0)
    with pytest.raises(ValueError):
        verify_lemma_LT_implies_expectation([3.0, 1.0], [2.0, 2.0], 1.0, 1.0, 100, 0)
    with pytest.raises(ValueError):
        verify_lemma_LT_implies_expectation([3.0, 1.0], [2.0, 2.0], 1.0, -0.1, 100, 0)
    with pytest.raises(ValueError, match="a must"):  # a bad a anywhere in a batch
        _lemma_margins([3.0, 1.0], [2.0, 2.0], 1.0, (0.25, 1.0), 100, 0)
    with pytest.raises(ValueError):
        verify_lemma_LT_implies_expectation([3.0, 1.0], [2.0, 2.0], 0.0, 0.25, 100, 0)
    with pytest.raises(ValueError, match="finite"):
        verify_lemma_LT_implies_expectation([2.0, 0.0], [1.0, 1.0], math.inf, 0.25, 1000, 0)
    # finite, but the draws scaled by sigma^2 overflow: the margin read nan
    with pytest.raises(ValueError, match="finite"):
        verify_lemma_LT_implies_expectation([2.0, 0.0], [1.0, 1.0], 1e200, 0.25, 1000, 0)
    with pytest.raises(ValueError):
        verify_lemma_LT_implies_expectation([3.0, 1.0], [2.0, 2.0], 1.0, 0.25, 0, 0)
    # one draw has no spread to give an error bar from
    with pytest.raises(ValueError, match="n_samples"):
        verify_lemma_LT_implies_expectation([3.0, 1.0], [2.0, 2.0], 1.0, 0.25, 1, 0)


# --- report type ---------------------------------------------------------------


def test_lemma_rejects_a_negative_allocation_entry():
    # [5, -1] majorizes [2, 2], but the negative power took log1p below -1:
    # a RuntimeWarning and a nan margin
    with pytest.raises(ValueError, match="nonnegative"):
        verify_lemma_LT_implies_expectation([5.0, -1.0], [2.0, 2.0], 1.0, 0.5, 1000, 0)


def test_report_requires_witnesses():
    with pytest.raises(ValueError):
        OrderCheckReport(grid="g", witnesses=())


def test_report_derives_margin_worst_and_holds():
    ws = [Witness("first", 2.0), Witness("second", -1e-3), Witness("third", 0.5)]
    report = OrderCheckReport("grid", ws)
    assert report.witnesses == tuple(ws)
    assert report.min_margin == -1e-3
    assert report.worst.point == "second"
    assert report == OrderCheckReport("grid", report.witnesses)
    tie = OrderCheckReport("grid", [*ws, Witness("fourth", -1e-3)])
    assert tie.worst.point == "second"  # the first least margin
    assert not report.holds
    assert OrderCheckReport("grid", ws[:1]).holds
    assert OrderCheckReport("grid", [Witness("slack", -1e-12)]).holds


@pytest.mark.parametrize("margins", [[0.5, math.nan], [math.nan, 0.5], [0.5, math.nan, -1.0]])
def test_report_with_a_nan_margin_fails_in_any_order(margins):
    ws = [Witness(f"p{i}", m) for i, m in enumerate(margins)]
    report = OrderCheckReport("grid", ws)
    # min() skipped a NaN that was not first, and such a report held
    assert report.worst.point == f"p{[math.isnan(m) for m in margins].index(True)}"
    assert math.isnan(report.min_margin)
    assert not report.holds


def test_report_margins_are_read_only():
    report = OrderCheckReport("grid", [Witness("a", 1.0)])
    with pytest.raises(ValueError):
        report._margins[0] = -1.0
    assert report.holds

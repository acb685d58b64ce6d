"""Per-sample kernels and the streaming reducer."""
import numpy as np
import pytest

import misosec
from misosec import _kernels as K


@pytest.fixture(scope="module")
def sample_inputs():
    rng = np.random.default_rng(0)
    abs2 = rng.exponential(1.0, size=(20000, 4))
    d = rng.uniform(0.0, 2.0, 4)
    q = K.quad_form(abs2, d)
    return abs2, d, q


def test_active_backend_reports_a_known_name():
    assert misosec.active_backend() == "numpy"


def test_quad_form_is_the_weighted_row_sum(sample_inputs):
    abs2, d, q = sample_inputs
    np.testing.assert_allclose(q, (abs2 * d).sum(axis=1), rtol=1e-12)
    assert np.all(q >= 0)


def test_coupled_integrand_vanishes_at_equal_scales(sample_inputs):
    # a = 1 collapses the integrand to exactly zero
    _, _, q = sample_inputs
    assert np.all(K.coupled_integrand(q, 1.0) == 0.0)


@pytest.mark.parametrize("a", [0.01, 0.25, 0.81])
def test_grad_weights_positive_below_unit_ratio(sample_inputs, a):
    _, _, q = sample_inputs
    assert np.all(K.grad_weights(q, a) > 0)


def _feed(chunks):
    moments = K.RunningMoments()
    for chunk in chunks:
        moments.add(chunk)
    return moments.mean_se()


def test_running_moments_match_two_pass():
    rng = np.random.default_rng(1)
    x = rng.normal(3.0, 2.0, size=10_001)
    mean, se = _feed(np.array_split(x, 7))
    assert isinstance(mean, float) and isinstance(se, float)
    assert mean == pytest.approx(x.mean(), rel=1e-13)
    assert se == pytest.approx(x.std(ddof=1) / np.sqrt(x.size), rel=1e-12)


def test_running_moments_mean_is_chunk_sums_over_n():
    # the mean is bit-for-bit the sum of per-chunk np.sum totals over n
    rng = np.random.default_rng(2)
    chunks = [rng.exponential(1.0, size=n) for n in (5, 1000, 3)]
    mean, _ = _feed(chunks)
    total = 0.0
    for chunk in chunks:
        total += float(np.sum(chunk))
    assert mean == total / 1008


def test_running_moments_per_coordinate():
    rng = np.random.default_rng(3)
    x = rng.exponential([1.0, 5.0, 0.1], size=(5000, 3))
    mean, se = _feed(np.array_split(x, 4))
    assert mean.shape == se.shape == (3,)
    np.testing.assert_allclose(mean, x.mean(axis=0), rtol=1e-13)
    np.testing.assert_allclose(se, x.std(axis=0, ddof=1) / np.sqrt(5000), rtol=1e-12)


def test_running_moments_constant_and_single_sample():
    assert _feed([np.zeros(10), np.zeros(3)]) == (0.0, 0.0)
    assert _feed([np.array([2.5])]) == (2.5, 0.0)

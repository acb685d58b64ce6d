"""Sampling determinism, ensemble moments, and domain-type validation."""
import numpy as np
import pytest
from scipy.stats import ks_2samp

from misosec import (
    CHUNK,
    ChannelModel,
    ComplexGainMatrix,
    PowerAllocation,
    RateEstimate,
    Side,
    iter_abs2,
    quadratic_form,
    random_unitary,
    sample_channel,
)
from misosec.channel import STREAM_LEGITIMATE


def test_sample_channel_deterministic():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.5)
    first = sample_channel(model, Side.LEGITIMATE, 4, seed=7)
    second = sample_channel(model, Side.LEGITIMATE, 4, seed=7)
    assert np.array_equal(first.entries, second.entries)
    assert first.rows == 4 and first.cols == 2


def test_sample_channel_seed_and_side_matter():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=1.0)
    base = sample_channel(model, Side.LEGITIMATE, 8, seed=7)
    other_seed = sample_channel(model, Side.LEGITIMATE, 8, seed=8)
    other_side = sample_channel(model, Side.EAVESDROPPER, 8, seed=7)
    assert not np.array_equal(base.entries, other_seed.entries)
    # equal scales but disjoint substreams: sides never share draws
    assert not np.array_equal(base.entries, other_side.entries)


def test_sample_channel_spans_chunks():
    # counts that straddle a chunk boundary stay deterministic and consistent
    model = ChannelModel(n_t=3, sigma_h=0.8, sigma_g=0.5)
    count = CHUNK + 17
    gains = sample_channel(model, Side.LEGITIMATE, count, seed=3)
    again = sample_channel(model, Side.LEGITIMATE, count, seed=3)
    assert np.array_equal(gains.entries, again.entries)

    def streamed():
        return np.concatenate(
            list(iter_abs2(model.sigma_h, model.n_t, count, 3, STREAM_LEGITIMATE))
        )

    fast = streamed()
    assert fast.shape == (count, model.n_t)
    assert np.array_equal(fast, streamed())

    # the fast path matches the complex draws in distribution, not draw for draw
    direct = gains.entries.real**2 + gains.entries.imag**2
    _, p_entries = ks_2samp(fast.ravel(), direct.ravel())
    assert p_entries > 1e-3
    alloc = PowerAllocation(d=(2.0, 1.0, 0.25), budget=3.25)
    d = alloc.as_array()
    _, p_form = ks_2samp(fast @ d, quadratic_form(gains, alloc))
    assert p_form > 1e-3


def test_sample_channel_rejects_zero_count():
    model = ChannelModel(n_t=1, sigma_h=1.0, sigma_g=1.0)
    with pytest.raises(ValueError):
        sample_channel(model, Side.LEGITIMATE, 0, seed=0)


def test_entry_second_moment():
    # |h|^2 is Exponential(mean sigma^2) with variance sigma^4
    model = ChannelModel(n_t=1, sigma_h=1.0, sigma_g=0.5)
    gains = sample_channel(model, Side.LEGITIMATE, 10**6, seed=1)
    abs2 = np.abs(gains.entries[:, 0]) ** 2
    se = 1.0 / np.sqrt(10**6)
    assert abs(abs2.mean() - 1.0) < 3 * se


def test_norm_second_moment_eavesdropper():
    # ||g||^2 sums three exponentials of mean 0.25
    model = ChannelModel(n_t=3, sigma_h=1.0, sigma_g=0.5)
    gains = sample_channel(model, Side.EAVESDROPPER, 10**6, seed=2)
    norms = np.sum(np.abs(gains.entries) ** 2, axis=1)
    se = np.sqrt(3 * 0.25**2 / 10**6)
    assert abs(norms.mean() - 0.75) < 3 * se


def test_quadratic_form_zero_allocation():
    model = ChannelModel(n_t=3, sigma_h=1.0, sigma_g=1.0)
    gains = sample_channel(model, Side.LEGITIMATE, 100, seed=0)
    alloc = PowerAllocation(d=(0.0, 0.0, 0.0), budget=1.0)
    assert np.all(quadratic_form(gains, alloc) == 0.0)


def test_quadratic_form_single_antenna_selection():
    model = ChannelModel(n_t=3, sigma_h=1.0, sigma_g=1.0)
    gains = sample_channel(model, Side.LEGITIMATE, 200, seed=1)
    alloc = PowerAllocation(d=(2.5, 0.0, 0.0), budget=2.5)
    expected = 2.5 * np.abs(gains.entries[:, 0]) ** 2
    np.testing.assert_allclose(quadratic_form(gains, alloc), expected, rtol=1e-12)


def test_quadratic_form_matches_manual_sum():
    model = ChannelModel(n_t=2, sigma_h=1.3, sigma_g=1.0)
    gains = sample_channel(model, Side.LEGITIMATE, 3, seed=9)
    alloc = PowerAllocation(d=(1.0, 2.0), budget=3.0)
    manual = np.array(
        [
            1.0 * abs(gains.entries[i, 0]) ** 2 + 2.0 * abs(gains.entries[i, 1]) ** 2
            for i in range(3)
        ]
    )
    np.testing.assert_allclose(quadratic_form(gains, alloc), manual, rtol=1e-12)
    assert np.all(quadratic_form(gains, alloc) >= 0)


def test_quadratic_form_dimension_mismatch():
    model = ChannelModel(n_t=3, sigma_h=1.0, sigma_g=1.0)
    gains = sample_channel(model, Side.LEGITIMATE, 10, seed=0)
    with pytest.raises(ValueError):
        quadratic_form(gains, PowerAllocation(d=(1.0, 1.0), budget=2.0))


def test_rotational_invariance_of_quadratic_form():
    """Rotating the gains by a Haar unitary leaves the quadratic form's law alone."""
    model = ChannelModel(n_t=3, sigma_h=1.0, sigma_g=1.0)
    alloc = PowerAllocation(d=(2.0, 1.0, 0.5), budget=4.0)
    plain = sample_channel(model, Side.LEGITIMATE, 20000, seed=1)
    other = sample_channel(model, Side.LEGITIMATE, 20000, seed=2)
    u = random_unitary(3, seed=5)
    rotated = ComplexGainMatrix(
        entries=np.ascontiguousarray(other.entries @ u.T), scale=other.scale
    )
    _, p_value = ks_2samp(quadratic_form(plain, alloc), quadratic_form(rotated, alloc))
    assert p_value > 1e-3


def test_random_unitary_is_unitary():
    u = random_unitary(4, seed=11)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    assert np.array_equal(u, random_unitary(4, seed=11))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_t": 0, "sigma_h": 1.0, "sigma_g": 1.0},
        {"n_t": 2, "sigma_h": 0.0, "sigma_g": 1.0},
        {"n_t": 2, "sigma_h": 1.0, "sigma_g": -0.5},
        {"n_t": 2.5, "sigma_h": 1.0, "sigma_g": 1.0},
        {"n_t": 2, "sigma_h": float("inf"), "sigma_g": 1.0},
        {"n_t": 2, "sigma_h": 1.0, "sigma_g": float("inf")},
        {"n_t": 2, "sigma_h": float("nan"), "sigma_g": 1.0},
        {"n_t": 2, "sigma_h": 1e200, "sigma_g": 1.0},  # square overflows
        {"n_t": 2, "sigma_h": 1.0, "sigma_g": 1e-200},  # square underflows to 0
        {"n_t": 2, "sigma_h": 1e150, "sigma_g": 1e-150},  # a underflows to 0
    ],
)
def test_channel_model_validation(kwargs):
    with pytest.raises(ValueError):
        ChannelModel(**kwargs)


def test_channel_model_ratio():
    model = ChannelModel(n_t=2, sigma_h=2.0, sigma_g=1.0)
    assert model.a == pytest.approx(0.25)
    assert model.scale(Side.LEGITIMATE) == 2.0
    assert model.scale(Side.EAVESDROPPER) == 1.0


@pytest.mark.parametrize(
    "d, budget",
    [
        ((), 1.0),
        ((1.0, -0.1), 1.0),
        ((0.7, 0.7), 1.0),
        ((0.5,), 0.0),
        ((0.5,), float("inf")),
        ((0.5,), float("nan")),
        ((float("nan"), 0.5), 1.0),
    ],
)
def test_power_allocation_validation(d, budget):
    with pytest.raises(ValueError):
        PowerAllocation(d=d, budget=budget)


def test_power_allocation_uniform():
    alloc = PowerAllocation.uniform(4, 10.0)
    assert alloc.d == (2.5, 2.5, 2.5, 2.5)
    assert alloc.n_t == 4
    assert alloc.as_array().dtype == np.float64


def test_rate_estimate_validation():
    with pytest.raises(ValueError):
        RateEstimate(mean=0.1, std_error=-1e-9, n_samples=10, seed=0)
    with pytest.raises(ValueError):
        RateEstimate(mean=0.1, std_error=0.0, n_samples=0, seed=0)


def test_gain_matrix_is_readonly():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=1.0)
    gains = sample_channel(model, Side.LEGITIMATE, 4, seed=0)
    with pytest.raises(ValueError):
        gains.entries[0, 0] = 0.0

"""Sampling determinism, ensemble moments, and domain-type validation."""
import math
import sys

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from complex_reference import quadratic_form, random_unitary, sample_channel
from misosec import ChannelModel, PowerAllocation, RateEstimate, channel
from misosec.channel import CHUNK, STREAM_EAVESDROPPER, STREAM_LEGITIMATE, _draw_abs2, iter_abs2
from misosec.optimize import _random_start
from misosec.rates import _GAMMA_MIN_NT, _draw_layout
from misosec.sweeps import point_seed


def test_sample_channel_deterministic():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.5)
    first = sample_channel(model.sigma_h, model.n_t, 4, 7, STREAM_LEGITIMATE)
    second = sample_channel(model.sigma_h, model.n_t, 4, 7, STREAM_LEGITIMATE)
    assert np.array_equal(first, second)
    assert first.shape == (4, 2)


def test_sample_channel_seed_and_side_matter():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=1.0)
    base = sample_channel(model.sigma_h, 2, 8, 7, STREAM_LEGITIMATE)
    other_seed = sample_channel(model.sigma_h, 2, 8, 8, STREAM_LEGITIMATE)
    other_side = sample_channel(model.sigma_g, 2, 8, 7, STREAM_EAVESDROPPER)
    assert not np.array_equal(base, other_seed)
    # equal scales but disjoint substreams: sides never share draws
    assert not np.array_equal(base, other_side)


def test_sample_channel_spans_chunks():
    # counts that straddle a chunk boundary stay deterministic and consistent
    model = ChannelModel(n_t=3, sigma_h=0.8, sigma_g=0.5)
    count = CHUNK + 17
    gains = sample_channel(model.sigma_h, model.n_t, count, 3, STREAM_LEGITIMATE)
    again = sample_channel(model.sigma_h, model.n_t, count, 3, STREAM_LEGITIMATE)
    assert np.array_equal(gains, again)

    def streamed():
        return np.concatenate(
            list(iter_abs2(model.sigma_h, model.n_t, count, 3, STREAM_LEGITIMATE))
        )

    fast = streamed()
    assert fast.shape == (count, model.n_t)
    assert np.array_equal(fast, streamed())

    # the fast path matches the complex draws in distribution, not draw for draw
    direct = gains.real**2 + gains.imag**2
    _, p_entries = ks_2samp(fast.ravel(), direct.ravel())
    assert p_entries > 1e-3
    alloc = PowerAllocation(d=(2.0, 1.0, 0.25), budget=3.25)
    d = alloc.as_array()
    _, p_form = ks_2samp(fast @ d, quadratic_form(gains, d))
    assert p_form > 1e-3


@pytest.mark.parametrize("n_t", [1, 4])
def test_entry_draws_are_exponential_across_a_chunk_boundary(n_t):
    # chunk 0's last rows and chunk 1's first, against Exponential(sigma^2)
    sigma = 0.7
    rows = [_draw_abs2(sigma, n_t, CHUNK, 9, STREAM_EAVESDROPPER, 0)[-10_000:],
            _draw_abs2(sigma, n_t, 10_000, 9, STREAM_EAVESDROPPER, 1)]
    drawn = np.concatenate(rows).ravel()
    assert kstest(drawn, "expon", args=(0.0, sigma * sigma)).pvalue > 1e-3


@pytest.mark.parametrize("sigma", [1.0, 0.3, 1e100])
def test_entry_draws_stay_within_the_inversion_bound(sigma):
    # -log(1 - U) of a 53-bit uniform U lies in [0, 53 ln 2], below the headroom rule's 36.8
    drawn = np.concatenate(list(iter_abs2(sigma, 4, 3 * CHUNK, 2, STREAM_LEGITIMATE)))
    assert np.all(drawn >= 0.0)
    assert np.all(drawn <= 53 * math.log(2.0) * (1 + 1e-15) * sigma * sigma)
    assert 53 * math.log(2.0) < 36.8


@pytest.mark.parametrize("n_t", [1, 4])
def test_iter_abs2_yields_the_draw_chunks(n_t):
    count = 2 * CHUNK + 5
    streamed = list(iter_abs2(0.5, n_t, count, 3, STREAM_EAVESDROPPER))
    assert [chunk.shape for chunk in streamed] == [(CHUNK, n_t), (CHUNK, n_t), (5, n_t)]
    for index, chunk in enumerate(streamed):
        drawn = _draw_abs2(0.5, n_t, chunk.shape[0], 3, STREAM_EAVESDROPPER, index)
        assert np.array_equal(chunk, drawn)


@pytest.mark.parametrize("seed, index", [(3, 0), (-5, 2)])
def test_chunks_map_the_draws_of_an_sfc64_generator(seed, index):
    # chunk index of a stream draws from SFC64 seeded by (seed mod 2^63, stream, index)
    def generator():
        entropy = (seed % 2**63, STREAM_EAVESDROPPER, index)
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))

    sigma, n_t, rows = 0.7, 6, 1000
    entries = -(sigma * sigma) * np.log(1.0 - generator().random((rows, n_t)))
    drawn = _draw_abs2(sigma, n_t, rows, seed, STREAM_EAVESDROPPER, index)
    assert np.array_equal(drawn, entries)
    sums = generator().standard_gamma(n_t, (rows, 1)) * (sigma * sigma)
    drawn = _draw_abs2(sigma, n_t, rows, seed, STREAM_EAVESDROPPER, index, summed=True)
    assert np.array_equal(drawn, sums)


def test_substream_tags_differ_pairwise():
    tags = [
        channel.STREAM_LEGITIMATE, channel.STREAM_EAVESDROPPER, channel.STREAM_GENERIC,
        channel._START_TAG, channel._PAIRS_TAG, channel._POINT_TAG,
    ]
    assert len(set(tags)) == len(tags)


@pytest.mark.parametrize("seed", [-3, 2**64 + 5])
def test_random_start_and_point_seeds_fold_the_seed_under_their_tags(seed):
    # hand-built references: the random start draws under tag 8, sweep points under 13
    rng = np.random.default_rng(np.random.SeedSequence((seed % 2**63, 8)))
    assert np.array_equal(_random_start(5, 3.0, seed), 3.0 * rng.dirichlet(np.ones(5)))
    for index in (0, 7):
        state = np.random.SeedSequence((seed % 2**63, 13, index)).generate_state(1)
        assert point_seed(seed, index) == int(state[0])


@pytest.mark.parametrize("n_t", [_GAMMA_MIN_NT, 64])
def test_summed_rows_match_complex_draws_in_distribution(n_t):
    # the equal-allocation routes draw q as (P/n_t) * sigma^2 Gamma(n_t) per row
    model = ChannelModel(n_t=n_t, sigma_h=1.0, sigma_g=0.5)
    alloc = PowerAllocation.uniform(n_t, 10.0)
    weights, summed = _draw_layout(alloc.as_array(), n_t)
    assert summed and weights.shape == (1,)
    # the capacity routes' one-entry form draws the same layout
    one, one_summed = _draw_layout(alloc.as_array()[:1], n_t)
    assert one_summed and np.array_equal(one, weights)
    count = 20_000
    drawn = _draw_abs2(model.sigma_g, n_t, count, 4, STREAM_EAVESDROPPER, 0, summed=True)
    assert drawn.shape == (count, 1)
    gains = sample_channel(model.sigma_g, n_t, count, 5, STREAM_EAVESDROPPER)
    _, p_value = ks_2samp(drawn[:, 0] * weights[0], quadratic_form(gains, alloc.d))
    assert p_value > 1e-3


def test_entry_second_moment():
    # |h|^2 is Exponential(mean sigma^2) with variance sigma^4
    model = ChannelModel(n_t=1, sigma_h=1.0, sigma_g=0.5)
    gains = sample_channel(model.sigma_h, 1, 10**6, 1, STREAM_LEGITIMATE)
    abs2 = np.abs(gains[:, 0]) ** 2
    se = 1.0 / np.sqrt(10**6)
    assert abs(abs2.mean() - 1.0) < 3 * se


def test_norm_second_moment_eavesdropper():
    # ||g||^2 sums three exponentials of mean 0.25
    model = ChannelModel(n_t=3, sigma_h=1.0, sigma_g=0.5)
    gains = sample_channel(model.sigma_g, 3, 10**6, 2, STREAM_EAVESDROPPER)
    norms = np.sum(np.abs(gains) ** 2, axis=1)
    se = np.sqrt(3 * 0.25**2 / 10**6)
    assert abs(norms.mean() - 0.75) < 3 * se


def test_quadratic_form_zero_allocation():
    model = ChannelModel(n_t=3, sigma_h=1.0, sigma_g=1.0)
    gains = sample_channel(model.sigma_h, 3, 100, 0, STREAM_LEGITIMATE)
    assert np.all(quadratic_form(gains, (0.0, 0.0, 0.0)) == 0.0)


def test_quadratic_form_single_antenna_selection():
    model = ChannelModel(n_t=3, sigma_h=1.0, sigma_g=1.0)
    gains = sample_channel(model.sigma_h, 3, 200, 1, STREAM_LEGITIMATE)
    expected = 2.5 * np.abs(gains[:, 0]) ** 2
    np.testing.assert_allclose(quadratic_form(gains, (2.5, 0.0, 0.0)), expected, rtol=1e-12)


def test_quadratic_form_matches_manual_sum():
    model = ChannelModel(n_t=2, sigma_h=1.3, sigma_g=1.0)
    gains = sample_channel(model.sigma_h, 2, 3, 9, STREAM_LEGITIMATE)
    manual = np.array(
        [1.0 * abs(gains[i, 0]) ** 2 + 2.0 * abs(gains[i, 1]) ** 2 for i in range(3)]
    )
    np.testing.assert_allclose(quadratic_form(gains, (1.0, 2.0)), manual, rtol=1e-12)
    assert np.all(quadratic_form(gains, (1.0, 2.0)) >= 0)


def test_rotational_invariance_of_quadratic_form():
    """Rotating the gains by a Haar unitary leaves the quadratic form's law alone."""
    model = ChannelModel(n_t=3, sigma_h=1.0, sigma_g=1.0)
    d = (2.0, 1.0, 0.5)
    plain = sample_channel(model.sigma_h, 3, 20000, 1, STREAM_LEGITIMATE)
    other = sample_channel(model.sigma_h, 3, 20000, 2, STREAM_LEGITIMATE)
    u = random_unitary(3, seed=5)
    _, p_value = ks_2samp(quadratic_form(plain, d), quadratic_form(other @ u.T, d))
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


def test_channel_model_rejects_an_n_t_too_large_to_index():
    # such an n_t raised OverflowError from the first array of that many entries
    assert ChannelModel(n_t=sys.maxsize, sigma_h=1.0, sigma_g=0.5).n_t == sys.maxsize
    with pytest.raises(ValueError, match="maxsize"):
        ChannelModel(n_t=sys.maxsize + 1, sigma_h=1.0, sigma_g=0.5)


def test_channel_model_ratio():
    model = ChannelModel(n_t=2, sigma_h=2.0, sigma_g=1.0)
    assert model.a == pytest.approx(0.25)


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


@pytest.mark.parametrize("n_t", [True, 2.5, 0, sys.maxsize + 1])
def test_power_allocation_uniform_rejects_what_channel_model_rejects(n_t):
    # uniform(True, P) returned a one-antenna allocation; uniform(2.5, P) raised TypeError
    with pytest.raises(ValueError, match="n_t"):
        PowerAllocation.uniform(n_t, 10.0)
    with pytest.raises(ValueError, match="n_t"):
        ChannelModel(n_t=n_t, sigma_h=1.0, sigma_g=0.5)


def test_power_allocation_uniform_takes_a_numpy_integer():
    assert PowerAllocation.uniform(np.int64(4), 10.0) == PowerAllocation.uniform(4, 10.0)


def test_rate_estimate_validation():
    with pytest.raises(ValueError):
        RateEstimate(mean=0.1, std_error=-1e-9, n_samples=10, seed=0)
    with pytest.raises(ValueError):
        RateEstimate(mean=0.1, std_error=0.0, n_samples=0, seed=0)
    for mean, se in ((math.inf, 0.0), (math.nan, 0.0), (0.1, math.nan), (0.1, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            RateEstimate(mean=mean, std_error=se, n_samples=10, seed=0)


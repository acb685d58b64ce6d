"""Per-sample kernels and the streaming reducer."""
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import misosec
from conftest import suite_bits
from misosec import _kernels as K
from misosec import channel


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


@pytest.mark.parametrize("a", [1e-9, 0.25, 0.999, 1 - 1e-9, 1.0, 1 + 1e-9, 4.0, 1e20, 1e300])
def test_coupled_integrand_matches_mpmath(a):
    # the three-log form lost 0.11 relative at a = 0.999 and 1.1e5 at 1 - 1e-9;
    # a form with (1-a)/a, which rounds to -1 for a >= 2^53, fails at a = 1e300
    mpmath = pytest.importorskip("mpmath")
    q = np.concatenate(([0.0], np.logspace(-12, 300, 313)))
    value = K.coupled_integrand(q, a)
    assert value[0] == 0.0
    with mpmath.workdps(50):
        am = mpmath.mpf(a)
        for qk, vk in zip(q[1:].tolist(), value[1:].tolist()):
            qm = mpmath.mpf(qk)
            exact = (mpmath.log(am + qm) - mpmath.log(am) - mpmath.log(1 + qm)) / mpmath.log(2)
            if a == 1.0:
                assert vk == 0.0
            else:
                assert abs(vk - exact) <= 1e-14 * abs(exact), (qk, vk, exact)


def test_log_rate_keeps_the_bits_of_the_plain_form(sample_inputs):
    _, _, q = sample_inputs
    assert np.array_equal(K.log_rate(q), np.log2(1.0 + q))


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


# --- the pooled chunk reducer ----------------------------------------------

CHUNK = channel.CHUNK
# one row, one full chunk, one row past it, and 7 chunks with a short tail
COUNTS = [1, CHUNK, CHUNK + 1, 6 * CHUNK + 123]
D = np.array([0.5, 1.5, 2.0])
FORMS = {
    "scalar": lambda abs2: K.coupled_integrand(K.quad_form(abs2, D), 0.3),
    "per_coordinate": lambda abs2: abs2 * K.grad_weights(K.quad_form(abs2, D), 0.3)[:, None],
}


def _chunks(sigma, seed, stream, *fns):
    """A chunk fn as stream_moments takes it: chunk index of one stream, drawn
    as the routes draw it, and each of fns on it in turn."""

    def chunk(index, rows):
        abs2 = channel._draw_abs2(sigma, 3, rows, seed, stream, index)
        return (fn(abs2) for fn in fns)

    return chunk


def _serial(fn, sigma, count, seed, stream):
    moments = K.RunningMoments()
    for abs2 in channel.iter_abs2(sigma, 3, count, seed, stream):
        moments.add(fn(abs2))
    return moments.mean_se()


def _assert_bit_identical(got, want):
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
        assert type(g) is type(w)


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("count", COUNTS)
def test_stream_moments_bit_identical_to_serial_loop(form, count):
    fn = FORMS[form]
    chunk = _chunks(0.7, 11, channel.STREAM_EAVESDROPPER, fn)
    ((got,),) = channel.stream_moments((chunk,), count)
    _assert_bit_identical(got, _serial(fn, 0.7, count, 11, channel.STREAM_EAVESDROPPER))


@pytest.mark.parametrize("form", sorted(FORMS))
def test_stream_moments_reduces_each_draw_in_order(form):
    # one chunk fn per stream: each fn's result comes back in fns' order
    fn = FORMS[form]
    draws = ((1.0, channel.STREAM_LEGITIMATE), (0.5, channel.STREAM_EAVESDROPPER))
    count = 2 * CHUNK + 9
    chunks = [_chunks(sigma, 4, stream, fn) for sigma, stream in draws]
    got = channel.stream_moments(chunks, count)
    assert len(got) == 2
    for (g,), (sigma, stream) in zip(got, draws):
        _assert_bit_identical(g, _serial(fn, sigma, count, 4, stream))


def test_stream_moments_reduces_each_output_as_if_alone():
    # one draw feeding several outputs, of both forms, gives each output the
    # bits of a call that asks for it alone
    fns = [
        FORMS["scalar"],
        FORMS["per_coordinate"],
        lambda abs2: K.log_rate(K.quad_form(abs2, 2 * D)),
    ]
    draws = ((1.0, channel.STREAM_LEGITIMATE), (0.5, channel.STREAM_EAVESDROPPER))
    count = 2 * CHUNK + 9
    chunks = [_chunks(sigma, 4, stream, *fns) for sigma, stream in draws]
    got = channel.stream_moments(chunks, count)
    assert [len(per_draw) for per_draw in got] == [len(fns)] * len(draws)
    for per_draw, (sigma, stream) in zip(got, draws):
        for g, fn in zip(per_draw, fns):
            _assert_bit_identical(g, _serial(fn, sigma, count, 4, stream))


@pytest.mark.parametrize("form", sorted(FORMS))
def test_stream_moments_same_bits_on_one_worker(monkeypatch, form):
    fn = FORMS[form]
    count = 6 * CHUNK + 123
    chunk = _chunks(0.7, 2, channel.STREAM_GENERIC, fn)
    ((pooled,),) = channel.stream_moments((chunk,), count)
    with ThreadPoolExecutor(max_workers=1) as one:
        monkeypatch.setattr(channel, "_POOL", one)
        ((single,),) = channel.stream_moments((chunk,), count)
    _assert_bit_identical(single, pooled)
    _assert_bit_identical(single, _serial(fn, 0.7, count, 2, channel.STREAM_GENERIC))


def test_stream_moments_finishes_while_every_worker_is_busy(monkeypatch):
    # the caller runs every chunk no worker has started, so a pool whose
    # workers are all taken cannot stall it
    release = threading.Event()
    fn = FORMS["scalar"]
    with ThreadPoolExecutor(max_workers=1) as busy:
        blocker = busy.submit(release.wait, 60)
        monkeypatch.setattr(channel, "_POOL", busy)
        try:
            chunk = _chunks(0.7, 8, channel.STREAM_GENERIC, fn)
            ((got,),) = channel.stream_moments((chunk,), 3 * CHUNK)
            finished_while_blocked = not blocker.done()
        finally:
            release.set()
    assert finished_while_blocked
    _assert_bit_identical(got, _serial(fn, 0.7, 3 * CHUNK, 8, channel.STREAM_GENERIC))


def test_stream_moments_raises_the_chunk_error_and_stays_usable():
    def boom(abs2):
        raise FloatingPointError("chunk failed")

    with pytest.raises(FloatingPointError, match="chunk failed"):
        channel.stream_moments((_chunks(1.0, 0, channel.STREAM_GENERIC, boom),), 5 * CHUNK)
    fn = FORMS["scalar"]
    ((got,),) = channel.stream_moments((_chunks(1.0, 0, channel.STREAM_GENERIC, fn),), 100)
    _assert_bit_identical(got, _serial(fn, 1.0, 100, 0, channel.STREAM_GENERIC))


def test_stream_moments_rejects_empty_count():
    with pytest.raises(ValueError, match="count"):
        channel.stream_moments((_chunks(1.0, 0, channel.STREAM_GENERIC, FORMS["scalar"]),), 0)


# --- a reduce that fails while the pool is busy ------------------------------


def test_cancelled_reduce_runs_no_chunk_and_the_pool_stays_usable(blocked_pool):
    # the caller runs the last chunk first; when it raises, the reduce cancels
    # every chunk no worker has started before it re-raises
    busy, release = blocked_pool
    ran = []
    fn = FORMS["scalar"]

    def failing(abs2):
        ran.append(1)
        raise FloatingPointError("chunk failed")

    with pytest.raises(FloatingPointError, match="chunk failed"):
        channel.stream_moments((_chunks(0.7, 8, channel.STREAM_GENERIC, failing),), 4 * CHUNK)
    release.set()
    busy.submit(int).result(timeout=60)  # the worker has now taken every earlier task
    assert ran == [1]
    ((got,),) = channel.stream_moments((_chunks(0.7, 8, channel.STREAM_GENERIC, fn),), 2 * CHUNK)
    _assert_bit_identical(got, _serial(fn, 0.7, 2 * CHUNK, 8, channel.STREAM_GENERIC))


def test_verify_suite_failure_drops_its_started_lemma_chunks(monkeypatch, blocked_pool):
    # the caller runs the suite's tasks from the back, so the probe task of
    # the smallest dimension raises first; the tasks nobody started are
    # dropped, and the pool then runs a whole suite with the serial bits
    busy, release = blocked_pool
    verify = sys.modules["misosec.verify"]
    serial = suite_bits(verify.run_verify_suite(0, run_optimizer=False))
    draws, probed = [], []
    draw, probes = channel._draw_abs2, verify._pair_probes

    def counted(*args, **kwargs):
        draws.append(args)  # list.append is atomic, so pool threads may share it
        return draw(*args, **kwargs)

    def counted_probes(d_star, *args):
        probed.append(d_star.shape[1])
        return probes(d_star, *args)

    def broken(*args, **kwargs):
        raise FloatingPointError("probe failed")

    with monkeypatch.context() as patch:
        patch.setattr(channel, "_draw_abs2", counted)
        patch.setattr(verify, "_pair_probes", counted_probes)
        patch.setattr(verify, "_mgf_rate", broken)
        with pytest.raises(FloatingPointError, match="probe failed"):
            verify.run_verify_suite(0, run_optimizer=False)
        release.set()
        busy.submit(int).result(timeout=60)  # the worker has now taken every earlier task
    assert draws == []
    assert probed == [min(verify._PAIR_DIMS)]
    assert suite_bits(verify.run_verify_suite(0, run_optimizer=False)) == serial


def test_pool_map_returns_results_in_task_order(blocked_pool):
    # None is a result like any other, whichever thread ran the task
    tasks = [(lambda i: None if i % 2 else i, i) for i in range(5)]
    assert channel._pool_map(tasks) == [0, None, 2, None, 4]
    busy, release = blocked_pool
    release.set()
    assert channel._pool_map(tasks) == [0, None, 2, None, 4]


def _run_python(code):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_import_starts_no_thread():
    _run_python("import threading, misosec; assert threading.active_count() == 1")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_gets_its_own_pool():
    # a child forked after the pool ran inherits no pool threads; its calls
    # must still finish, with the parent's bits
    code = """
import multiprocessing as mp
from misosec import ChannelModel, EvalMethod, secrecy_capacity
def cap(seed):
    model = ChannelModel(2, 1.0, 0.5)
    return secrecy_capacity(model, 10.0, EvalMethod.coupled_mc(70_000, seed)).mean
if __name__ == "__main__":
    here = cap(1)
    with mp.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(cap, (1,)).get(timeout=60) == here
"""
    _run_python(code)

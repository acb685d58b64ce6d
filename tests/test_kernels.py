"""Per-sample kernels and the streaming reducer."""
import fcntl
import functools
import os
import signal
import subprocess
import sys
import termios
import threading
import time
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


# the reducer's tasks run in forked workers, so every fn they run is a
# module-level function, which pickles by name
def _scalar(abs2):
    return K.coupled_integrand(K.quad_form(abs2, D), 0.3)


def _per_coordinate(abs2):
    return abs2 * K.grad_weights(K.quad_form(abs2, D), 0.3)[:, None]


def _log_rate_2d(abs2):
    return K.log_rate(K.quad_form(abs2, 2 * D))


def _boom(abs2):
    raise FloatingPointError("chunk failed")


FORMS = {"scalar": _scalar, "per_coordinate": _per_coordinate}


def _chunk(sigma, seed, stream, fns, index, rows):
    abs2 = channel._draw_abs2(sigma, 3, rows, seed, stream, index)
    return (fn(abs2) for fn in fns)


def _chunks(sigma, seed, stream, *fns):
    """A chunk fn as stream_moments takes it: chunk index of one stream, drawn
    as the routes draw it, and each of fns on it in turn."""
    return functools.partial(_chunk, sigma, seed, stream, fns)


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
    fns = [_scalar, _per_coordinate, _log_rate_2d]
    draws = ((1.0, channel.STREAM_LEGITIMATE), (0.5, channel.STREAM_EAVESDROPPER))
    count = 2 * CHUNK + 9
    chunks = [_chunks(sigma, 4, stream, *fns) for sigma, stream in draws]
    got = channel.stream_moments(chunks, count)
    assert [len(per_draw) for per_draw in got] == [len(fns)] * len(draws)
    for per_draw, (sigma, stream) in zip(got, draws):
        for g, fn in zip(per_draw, fns):
            _assert_bit_identical(g, _serial(fn, sigma, count, 4, stream))


@pytest.mark.parametrize("form", sorted(FORMS))
def test_stream_moments_same_bits_without_workers(blocked_pool, form):
    # the calling thread alone, then the calling thread and the workers
    fn = FORMS[form]
    count = 6 * CHUNK + 123
    chunk = _chunks(0.7, 2, channel.STREAM_GENERIC, fn)
    ((alone,),) = channel.stream_moments((chunk,), count)
    blocked_pool()
    ((pooled,),) = channel.stream_moments((chunk,), count)
    _assert_bit_identical(alone, pooled)
    _assert_bit_identical(alone, _serial(fn, 0.7, count, 2, channel.STREAM_GENERIC))


def _wait_for(path):
    deadline = time.monotonic() + 60
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.001)


def _hold(directory, i):
    # marks that task i has started, then waits for the release
    Path(directory, f"held{i}").touch()
    _wait_for(Path(directory, "release"))


def test_stream_moments_finishes_while_every_worker_is_busy(tmp_path):
    # another call holds the pool, its tasks waiting for a file; this call
    # runs every chunk itself, so it cannot stall
    fn = FORMS["scalar"]
    tasks = [(_hold, str(tmp_path), i) for i in range(2)]
    holder = threading.Thread(target=channel._pool_map, args=(tasks,))
    holder.start()
    try:
        _wait_for(tmp_path / "held0")  # the holder's call has started: it holds the pool
        chunk = _chunks(0.7, 8, channel.STREAM_GENERIC, fn)
        ((got,),) = channel.stream_moments((chunk,), 3 * CHUNK)
        finished_while_blocked = holder.is_alive()
    finally:
        (tmp_path / "release").touch()
        holder.join(timeout=60)
    assert finished_while_blocked and not holder.is_alive()
    _assert_bit_identical(got, _serial(fn, 0.7, 3 * CHUNK, 8, channel.STREAM_GENERIC))


def test_stream_moments_raises_the_chunk_error_and_stays_usable():
    with pytest.raises(FloatingPointError, match="chunk failed"):
        channel.stream_moments((_chunks(1.0, 0, channel.STREAM_GENERIC, _boom),), 5 * CHUNK)
    fn = FORMS["scalar"]
    ((got,),) = channel.stream_moments((_chunks(1.0, 0, channel.STREAM_GENERIC, fn),), 100)
    _assert_bit_identical(got, _serial(fn, 1.0, 100, 0, channel.STREAM_GENERIC))


def test_stream_moments_rejects_empty_count():
    with pytest.raises(ValueError, match="count"):
        channel.stream_moments((_chunks(1.0, 0, channel.STREAM_GENERIC, FORMS["scalar"]),), 0)


# --- a reduce that fails while the pool is busy ------------------------------


def test_cancelled_reduce_runs_no_chunk_and_the_pool_stays_usable(blocked_pool):
    # the caller runs the chunks in list order; when the first raises, no other
    # chunk is claimed, and the next reduce, with the workers free, runs as usual
    ran = []
    fn = FORMS["scalar"]

    def failing(abs2):
        ran.append(1)
        raise FloatingPointError("chunk failed")

    with pytest.raises(FloatingPointError, match="chunk failed"):
        channel.stream_moments((_chunks(0.7, 8, channel.STREAM_GENERIC, failing),), 4 * CHUNK)
    blocked_pool()
    assert ran == [1]
    ((got,),) = channel.stream_moments((_chunks(0.7, 8, channel.STREAM_GENERIC, fn),), 2 * CHUNK)
    _assert_bit_identical(got, _serial(fn, 0.7, 2 * CHUNK, 8, channel.STREAM_GENERIC))


def test_verify_suite_failure_drops_its_started_lemma_chunks(monkeypatch, blocked_pool):
    # the caller runs the suite's tasks in list order, so the probe task of
    # the largest dimension raises first; the tasks nobody started are
    # never claimed, and the pool then runs a whole suite with the serial bits
    verify = sys.modules["misosec.verify"]
    serial = suite_bits(verify.run_verify_suite(0, run_optimizer=False))
    draws, probed = [], []  # appended in the calling thread, which runs every task
    draw, probes = channel._draw_abs2, verify._pair_probes

    def counted(*args, **kwargs):
        draws.append(args)
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
    blocked_pool()
    assert draws == []
    assert probed == [max(verify._PAIR_DIMS)]
    assert suite_bits(verify.run_verify_suite(0, run_optimizer=False)) == serial


def _none_if_odd(i):
    return None if i % 2 else i


def test_pool_map_returns_results_in_task_order(blocked_pool):
    # None is a result like any other, whoever ran the task
    tasks = [(_none_if_odd, i) for i in range(5)]
    assert channel._pool_map(tasks) == [0, None, 2, None, 4]
    blocked_pool()
    assert channel._pool_map(tasks) == [0, None, 2, None, 4]


_PARENT = os.getpid()
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_a_worker = pytest.mark.skipif(
    not sys.platform.startswith("linux") or _CORES < 2,
    reason="needs Linux (fork, memfd_create and /proc) and a second usable core",
)


def _fail_in_the_caller(directory, i):
    # a task in the caller fails; a task in a worker waits until one has, so
    # no worker can claim another task in between
    Path(directory, str(i)).touch()
    if os.getpid() == _PARENT:
        Path(directory, "failed").touch()
        raise FloatingPointError("task failed")
    _wait_for(Path(directory, "failed"))
    time.sleep(0.05)
    return i


def test_no_worker_claims_a_task_after_one_fails(tmp_path):
    # each worker holds one task until the caller's fails, which leaves the
    # caller a task to claim; after the failure nobody claims another
    tasks = [(_fail_in_the_caller, str(tmp_path), i) for i in range(_CORES + 1)]
    with pytest.raises(FloatingPointError, match="task failed"):
        channel._pool_map(tasks)
    started = set(os.listdir(tmp_path)) - {"failed"}
    assert "failed" in os.listdir(tmp_path) and 1 <= len(started) <= _CORES
    assert channel._pool_map([(_none_if_odd, i) for i in range(6)]) == [0, None, 2, None, 4, None]


def _fail_in_a_worker(directory, i):
    if os.getpid() != _PARENT:
        Path(directory, str(i)).touch()
        raise FloatingPointError(f"task {i} failed in a worker")
    time.sleep(0.01)  # leaves a worker time to claim a task
    return i


def test_a_worker_error_carries_its_traceback(tmp_path):
    # the error raised is that of the first task in task order that failed
    try:
        channel._pool_map([(_fail_in_a_worker, str(tmp_path), i) for i in range(4)])
    except FloatingPointError as err:
        first = min(map(int, os.listdir(tmp_path)))
        assert f"task {first} failed in a worker" in str(err)
        assert isinstance(err.__cause__, channel._RemoteTraceback)
        assert "_fail_in_a_worker" in str(err.__cause__)
    else:
        assert _CORES < 2, "a worker ran no task"


_chunk_stats = channel._chunk_stats


def _chunk_stats_or_die(fn, index, rows):
    # a worker dies in the first chunk it claims; the caller runs it as usual
    if os.getpid() != _PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return _chunk_stats(fn, index, rows)


@needs_a_worker
def test_a_call_whose_worker_dies_keeps_its_bits(monkeypatch):
    # a worker forked after the patch runs the patched task and dies; the
    # caller reruns the chunk it had claimed, and the next call forks anew
    model, method = misosec.ChannelModel(3, 1.0, 0.6), misosec.EvalMethod.coupled_mc(40 * CHUNK, 5)
    want = misosec.secrecy_capacity(model, 10.0, method)
    channel._stop_pool()
    monkeypatch.setattr(channel, "_chunk_stats", _chunk_stats_or_die)
    try:
        got = misosec.secrecy_capacity(model, 10.0, method)
        stopped = channel._POOL is None
    finally:
        channel._stop_pool()  # no worker may keep the patched task
    assert stopped, "no worker died"
    assert got == want


def _filled(i, size):
    return np.full(size, float(i))


def test_results_that_fill_the_pipes_come_back_in_task_order():
    # each result is 32 KiB, so a worker's results fill its pipe before the
    # caller, busy with its own tasks, reads them; the worker waits, and the
    # call still ends
    got = channel._pool_map([(_filled, i, 4096) for i in range(40)])
    assert len(got) == 40
    assert all(np.array_equal(g, _filled(i, 4096)) for i, g in enumerate(got))


def _unread(reader):
    """The bytes waiting in the pipe under reader."""
    return int.from_bytes(fcntl.ioctl(reader.fileno(), termios.FIONREAD, bytes(4)), sys.byteorder)


def _kill_a_writer(directory, i):
    # in a worker, a result larger than a pipe buffer; the caller's first task
    # kills the worker whose result has started to fill its pipe, while the
    # caller does not read it yet
    if os.getpid() == _PARENT and not Path(directory, "killed").exists():
        Path(directory, "killed").touch()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            writers = [w.pid for w in channel._POOL.workers if _unread(w.results)]
            if writers:
                os.kill(writers[0], signal.SIGKILL)
                break
            time.sleep(0.001)
    return _filled(i, 200_000)


@needs_a_worker
def test_a_worker_killed_in_the_middle_of_a_result_keeps_the_bits(tmp_path):
    # the caller reads a truncated result, reruns the task and forks new
    # workers at the next call
    channel._pool_map([(_none_if_odd, i) for i in range(2)])
    pids = {worker.pid for worker in channel._POOL.workers}
    got = channel._pool_map([(_kill_a_writer, str(tmp_path), i) for i in range(2)])
    assert channel._POOL is None, "no worker died"
    assert len(got) == 2
    assert all(np.array_equal(g, _filled(i, 200_000)) for i, g in enumerate(got))
    assert channel._pool_map([(_none_if_odd, i) for i in range(4)]) == [0, None, 2, None]
    assert channel._POOL.workers and not pids & {worker.pid for worker in channel._POOL.workers}


def _overflow_rule(i):
    # the rule the task runs under, and whether a worker ran it
    in_a_worker = os.getpid() != _PARENT
    if not in_a_worker:
        time.sleep(0.01)  # leaves a worker time to claim a task
    return np.geterr()["over"], in_a_worker


@needs_a_worker
def test_workers_forked_under_an_errstate_run_under_the_default():
    # the workers fork inside the caller's np.errstate, a context variable,
    # but run every task in a fresh context
    channel._stop_pool()
    with np.errstate(over="raise"):
        channel._pool_map([(_none_if_odd, i) for i in range(2)])
    rules, in_a_worker = zip(*channel._pool_map([(_overflow_rule, i) for i in range(6)]))
    assert any(in_a_worker)
    assert set(rules) == {np.geterr()["over"]} != {"raise"}


def _nested(i):
    # a task that makes a pool call of its own; where it ran, and whether
    # that process then has workers
    in_a_worker = os.getpid() != _PARENT
    if not in_a_worker:
        time.sleep(0.01)  # leaves a worker time to claim a task
    channel._pool_map([(_none_if_odd, k) for k in range(4)])
    return in_a_worker, channel._POOL is not None and bool(channel._POOL.workers)


@needs_a_worker
def test_a_worker_starts_no_workers_of_its_own():
    ran = channel._pool_map([(_nested, i) for i in range(6)])
    assert (True, False) in ran
    assert (True, True) not in ran


@needs_a_worker
def test_a_worker_ignores_sigint():
    # Ctrl-C reaches the whole process group; the caller handles it, and the
    # workers keep serving
    channel._pool_map([(_none_if_odd, i) for i in range(2)])
    pids = [worker.pid for worker in channel._POOL.workers]
    for pid in pids:
        os.kill(pid, signal.SIGINT)
    time.sleep(0.05)
    assert channel._pool_map([(_none_if_odd, i) for i in range(6)]) == [0, None, 2, None, 4, None]
    assert [worker.pid for worker in channel._POOL.workers] == pids


def test_two_threads_calling_at_once_get_the_serial_bits(blocked_pool):
    # one call uses the workers, the other runs its tasks in its own thread
    model = misosec.ChannelModel(4, 1.0, 0.5)
    methods = [misosec.EvalMethod.coupled_mc(200_001, 1), misosec.EvalMethod.direct_mc(200_001, 2)]
    serial = [misosec.secrecy_capacity(model, 10.0, method) for method in methods]
    blocked_pool()
    results = {}

    def run(method):
        results[method] = [misosec.secrecy_capacity(model, 10.0, method) for _ in range(5)]

    threads = [threading.Thread(target=run, args=(method,), daemon=True) for method in methods]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "a caller did not finish: deadlock?"
    assert [results[method] for method in methods] == [[value] * 5 for value in serial]


def _env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _run_python(code):
    """Run code in a fresh interpreter; returns its stdout."""
    return subprocess.run(
        [sys.executable, "-c", code], env=_env(), check=True, timeout=120,
        stdout=subprocess.PIPE, text=True,
    ).stdout


def test_import_starts_no_thread():
    # nor a process: the workers fork at the first call with tasks to share
    _run_python("""
import os, threading, misosec
assert threading.active_count() == 1 and misosec.channel._POOL is None
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    pass
else:
    raise AssertionError("import started a process")
""")


# a parallel call, then the workers' pids on one line
_CALL = """
from misosec import ChannelModel, EvalMethod, channel, secrecy_capacity
secrecy_capacity(ChannelModel(2, 1.0, 0.5), 10.0, EvalMethod.coupled_mc(70_000, 1))
print(*(worker.pid for worker in channel._POOL.workers), flush=True)
"""


def _running(pid):
    """Whether process pid runs; a zombie (exited, not yet reaped) does not."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@needs_a_worker
def test_a_process_that_exits_leaves_no_worker_behind():
    # the atexit hook closes the pipes and reaps the workers
    pids = [int(pid) for pid in _run_python(_CALL).split()]
    assert pids
    assert [pid for pid in pids if Path(f"/proc/{pid}").exists()] == []


# then a child that sleeps, and its pid on one more line
_FORK_A_SLEEPER = """
import os, sys, time
child = os.fork()
if child == 0:
    time.sleep(60)
    os._exit(0)
print(child, flush=True)
sys.stdin.read()
"""


@needs_a_worker
def test_a_killed_caller_leaves_no_worker_running_after_1s():
    # no hook runs; the worker reads end of file from its task pipe and exits,
    # although a child the caller forked lives on: the child dropped its copy
    # of the pipe's end at the fork
    with subprocess.Popen(
        [sys.executable, "-c", _CALL + _FORK_A_SLEEPER],
        env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    ) as proc:
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            sleeper = int(proc.stdout.readline())
        finally:
            proc.kill()
    try:
        assert pids and _running(sleeper)
        deadline = time.monotonic() + 1.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(map(_running, pids))
    finally:
        os.kill(sleeper, signal.SIGKILL)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_gets_its_own_pool():
    # a child forked after the pool ran drops the pipes of its parent's
    # workers; its calls fork workers of its own and keep the parent's bits
    code = """
import multiprocessing as mp
from misosec import ChannelModel, EvalMethod, channel, secrecy_capacity
def cap(seed):
    model = ChannelModel(2, 1.0, 0.5)
    return secrecy_capacity(model, 10.0, EvalMethod.coupled_mc(70_000, seed)).mean
def in_child(seed):
    inherited = channel._POOL
    return cap(seed), inherited, [worker.pid for worker in channel._POOL.workers]
if __name__ == "__main__":
    here = cap(1)
    parents = [worker.pid for worker in channel._POOL.workers]
    with mp.get_context("fork").Pool(1) as pool:
        there, inherited, own = pool.apply_async(in_child, (1,)).get(timeout=60)
    assert there == here and inherited is None
    assert len(own) == len(parents) and not set(own) & set(parents)
"""
    _run_python(code)

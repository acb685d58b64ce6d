"""Domain types and reproducible sampling of the Rayleigh-fading wiretap ensemble.

The legitimate channel h and the eavesdropper channel g are i.i.d. circularly
symmetric complex Gaussian vectors. Entry variance sigma^2 means the real and
imaginary parts are each N(0, sigma^2/2), so E[|h_k|^2] = sigma^2 and |h_k|^2
is Exponential with mean sigma^2.

Sampling is chunked and counter-seeded: each chunk of rows derives its own
generator from (seed, stream, chunk_index). Results are therefore a pure
function of the inputs and the seed, no matter how the work is split up or
run in parallel. Types are immutable after construction and safe to share
across threads. The generator is numpy's SFC64 (Doty-Humphrey's Small Fast
Chaotic generator, 256 bits of state) seeded by SeedSequence, not the
default PCG64: it is the fastest of numpy's bit generators, a chunk's
uniforms and Gamma variates cost about an eighth less, and SeedSequence's
hashing of (seed, stream, chunk_index) gives each chunk its own well-mixed
starting state.

The Monte Carlo estimators only need |g_k|^2, so they draw it directly: one
random((rows, n_t)) block of uniforms U per (seed, stream, chunk), mapped in
place to the Exponential(sigma^2) draws -sigma^2 log(1 - U) by inversion. A
route that only needs the per-row sum sum_k |g_k|^2 (an equal allocation,
see rates) may ask for the summed layout instead: one
standard_gamma(n_t, (rows, 1)) block per (seed, stream, chunk), scaled by
sigma^2, since the sum of n_t Exponential(1) draws is Gamma(n_t, 1). It
draws from the same generators and chunk layout, but it is a different
stream: its values agree with summing the per-entry chunks in distribution,
not draw for draw. stream_moments is the one reducer they all use. Each
caller hands it chunk functions: fn(index, rows) draws chunk index of its
own stream or streams with _draw_abs2 and yields the chunk's per-row
outputs. The reducer runs one task per (fn, chunk index) on the usable
cores, in the calling thread and in the chunk pool's worker processes, and
merges each output's chunk statistics in chunk order in the calling thread.
So every seeded result is bit-identical to running fn(index, rows) over the
chunks one by one, whatever the core count and however many threads call at
once. No route draws the complex entries themselves; the tests keep a complex
reference sampler, which these draws match in distribution.

_pool_map is the pool's one scheduler: the reducer queues its chunks through
it, and the verify suite its probe tasks. The workers are processes, not
threads, so the caller's and the workers' tasks do not take turns on one
GIL: one worker for each other core the process may run on, forked from the
caller by the first call that has tasks to share (import starts none), each
linked to it by two pipes. A task is therefore a picklable function and
picklable arguments: a module-level function, or a functools.partial of one.
Every process takes the next task in list order, and the results come back
in task order, whoever ran a task, so no output depends on the core count.
A worker ignores SIGINT and exits when its task pipe reads end of file: when
the caller's atexit hook closes it, or when the caller dies. A child forked
from the caller drops its copies of the pipes and forks its own workers.
Python 3.12 and later warn when a process that runs other OS threads forks,
and OpenBLAS's threads count. A task in a worker runs under numpy's default
np.errstate, not the caller's (a context variable in numpy 2). Memory figures
of the calling process, such as its peak RSS, leave the workers out.
"""
from __future__ import annotations

import atexit
import contextvars
import fcntl
import io
import math
import mmap
import os
import pickle
import signal
import sys
import threading
import traceback
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from . import _kernels

# rows per sampling chunk; fixed so chunk boundaries never depend on workers
CHUNK = 1 << 15

# disjoint substream tags
STREAM_LEGITIMATE = 0
STREAM_EAVESDROPPER = 1
STREAM_GENERIC = 2


def _check_count(value: int, name: str, minimum: int) -> None:
    """Reject a count that is not an integer (a bool is not one, a numpy
    integer is), is below minimum, or is more than any array can have."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if value > sys.maxsize:
        raise ValueError(f"{name} must be at most sys.maxsize = {sys.maxsize}, got {value}")


@dataclass(frozen=True)
class ChannelModel:
    """MISO wiretap ensemble: n_t transmit antennas with per-entry scales sigma_h, sigma_g.

    The ratio a = sigma_g^2 / sigma_h^2 governs everything downstream;
    a < 1 is the degraded regime where the secrecy capacity is positive.
    """

    n_t: int
    sigma_h: float
    sigma_g: float

    def __post_init__(self) -> None:
        _check_count(self.n_t, "n_t", 1)
        # every rate route works with the variances and their ratio a, so a
        # sigma whose square overflows or underflows is as unusable as inf
        for name, sigma in (("sigma_h", self.sigma_h), ("sigma_g", self.sigma_g)):
            if not (math.isfinite(sigma) and sigma > 0 and 0 < sigma * sigma < math.inf):
                raise ValueError(f"{name} and its square must be finite and positive, got {sigma}")
        if not 0 < self.a < math.inf:
            raise ValueError(f"a = sigma_g^2/sigma_h^2 must be finite and positive, got {self.a}")

    @property
    def a(self) -> float:
        return self.sigma_g**2 / self.sigma_h**2


@dataclass(frozen=True)
class PowerAllocation:
    """Diagonal power spectrum d (eigenvalues of the input covariance) under budget P.

    Entries are nonnegative and sum to at most the budget; optimizer outputs
    use the full budget.
    """

    d: tuple[float, ...]
    budget: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", tuple(float(x) for x in self.d))
        object.__setattr__(self, "budget", float(self.budget))
        if len(self.d) == 0:
            raise ValueError("allocation must have at least one entry")
        if not (math.isfinite(self.budget) and self.budget > 0):
            raise ValueError(f"budget must be finite and positive, got {self.budget}")
        if not all(math.isfinite(x) and x >= 0 for x in self.d):
            raise ValueError(f"allocation entries must be finite and nonnegative, got {self.d}")
        if sum(self.d) > self.budget * (1.0 + 1e-9):
            raise ValueError(f"allocation sum {sum(self.d)} exceeds budget {self.budget}")

    @classmethod
    def uniform(cls, n_t: int, budget: float) -> PowerAllocation:
        """Equal split budget/n_t per antenna."""
        _check_count(n_t, "n_t", 1)
        return cls(d=(budget / n_t,) * n_t, budget=budget)

    @property
    def n_t(self) -> int:
        return len(self.d)

    def as_array(self) -> NDArray[np.float64]:
        return np.asarray(self.d, dtype=np.float64)


@dataclass(frozen=True)
class RateEstimate:
    """A rate estimate in bits per channel use.

    For Monte Carlo, std_error is the standard error of the mean over
    n_samples draws. For quadrature, std_error is the rule's error estimate
    and n_samples its explicit node count. Clamps to exactly 0 carry std_error 0.
    """

    mean: float
    std_error: float
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.std_error)):
            raise ValueError(
                f"mean and std_error must be finite, got {self.mean} and {self.std_error}"
            )
        if self.std_error < 0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")


def _chunk_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    # SFC64 (see the module docstring): seeded and filling a CHUNK x 4 block
    # of uniforms took 201 us where PCG64 took 229 us, and a CHUNK x 1 block
    # of Gamma(5) 432 us against 491 us (medians, 2-core host).
    # SeedSequence entropy words must be nonnegative; fold negative seeds
    seeds = np.random.SeedSequence((seed % 2**63, stream, index))
    return np.random.Generator(np.random.SFC64(seeds))


def _chunk_rows(count: int) -> list[tuple[int, int]]:
    """(chunk index, rows) of each chunk of a count-row stream."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [(index, min(CHUNK, count - index * CHUNK)) for index in range(-(-count // CHUNK))]


def _draw_abs2(
    sigma: float, n_t: int, rows: int, seed: int, stream: int, index: int, summed: bool = False
) -> NDArray[np.float64]:
    """Chunk index of a stream: |g_ik|^2 as Exponential(1) draws scaled by sigma^2.

    Each draw is -log(1 - U) for one uniform U of rng.random (inversion; Devroye,
    Non-Uniform Random Variate Generation, 1986, II.2), formed in place in the
    uniforms' array. U is a multiple of 2^-53 in [0, 1), so 1 - U is exact and
    every draw lies in [0, 53 ln 2], within [0, 36.8], before the scaling.
    summed draws each row's sum over the n_t entries instead, as one Gamma(n_t, 1)
    draw scaled by sigma^2: a (rows, 1) chunk whatever n_t is.
    """
    rng = _chunk_rng(seed, stream, index)
    if summed:
        abs2 = rng.standard_gamma(n_t, (rows, 1))
        abs2 *= sigma * sigma
        return abs2
    abs2 = rng.random((rows, n_t))
    np.subtract(1.0, abs2, out=abs2)
    np.log(abs2, out=abs2)
    abs2 *= -(sigma * sigma)
    return abs2


def iter_abs2(
    sigma: float, n_t: int, count: int, seed: int, stream: int
) -> Iterator[NDArray[np.float64]]:
    """Yield chunks of squared entry magnitudes |g_ik|^2, CHUNK rows at a time.

    |g_ik|^2 of a CN(0, sigma^2) entry is Exponential with mean sigma^2, so
    each chunk is one random((rows, n_t)) block of uniforms from the
    (seed, stream, chunk) generator, mapped to -sigma^2 log(1 - U) (see
    _draw_abs2). The values agree with squared complex Gaussian entries in
    distribution, not draw for draw.
    Streaming avoids materializing count x n_t matrices for large Monte Carlo
    runs.
    """
    chunks = _chunk_rows(count)
    return (_draw_abs2(sigma, n_t, rows, seed, stream, index) for index, rows in chunks)


# a chunk fn of stream_moments, and what stream_moments returns
_ChunkFn = Callable[[int, int], Iterable[NDArray[np.float64]]]
_Moments = list[list[tuple[float | _kernels.FloatArray, float | _kernels.FloatArray]]]


def _chunk_stats(
    fn: _ChunkFn, index: int, rows: int
) -> list[tuple[int, float | _kernels.FloatArray, float | _kernels.FloatArray]]:
    # map lets go of each output before asking fn for the next; a comprehension
    # would hold it meanwhile, an order of frees that took 1.6x the page faults at n_t=1
    return list(map(_kernels.RunningMoments.chunk, fn(index, rows)))


# --- the chunk pool: the caller and one forked worker process per other core ---


class _RemoteTraceback(Exception):
    """The traceback of a task that raised in a worker process, as text."""


@dataclass(frozen=True)
class _Worker:
    pid: int
    tasks: int  # the caller's end of the pipe that carries task lists to the worker
    results: io.BufferedReader  # the caller's end of the pipe that carries its results back


class _Claims:
    """The task counter a call shares with its workers, in memory they all map:
    [next, end]. Every process, the caller and each worker, claims the next
    task in list order until next reaches end. Every change holds a POSIX
    record lock (`with claims:`), which the kernel drops if its holder dies."""

    def __init__(self) -> None:
        self._fd = os.memfd_create("misosec-claims")
        os.ftruncate(self._fd, 16)
        self._slots = memoryview(mmap.mmap(self._fd, 16)).cast("q")

    def __enter__(self) -> None:
        fcntl.lockf(self._fd, fcntl.LOCK_EX)

    def __exit__(self, *exc: object) -> None:
        fcntl.lockf(self._fd, fcntl.LOCK_UN)

    def reset(self, count: int) -> None:
        with self:
            self._slots[0], self._slots[1] = 0, count

    def take(self) -> int | None:
        """Claim the next task; None when every task is claimed or stopped."""
        with self:
            i = self._slots[0]
            if i >= self._slots[1]:
                return None
            self._slots[0] = i + 1
            return i

    def stop(self) -> None:
        """Leave every unclaimed task unclaimed."""
        with self:
            self._slots[1] = self._slots[0]


@dataclass(frozen=True)
class _Pool:
    claims: _Claims | None  # None with no workers
    workers: list[_Worker]


# held by the one call that is using the workers; a call that finds it taken
# runs its tasks in the caller
_POOL_LOCK = threading.Lock()
# the package's only pool: every Monte Carlo chunk and verify task of the
# process runs in its caller or in one of these workers, which start on first use
_POOL: _Pool | None = None


def _send(fd: int, message: bytes) -> None:
    view = memoryview(message)
    while view:
        view = view[os.write(fd, view):]


# a worker's last message of a call; each message is one pickle, which frames itself
_DONE = pickle.dumps(None, pickle.HIGHEST_PROTOCOL)


def _serve(tasks_fd: int, results_fd: int, claims: _Claims) -> None:
    """A worker's life: for each task list the caller sends, claim tasks in
    list order until none is left, sending back each result or error, then
    _DONE. It exits at end of file on its task pipe, when the caller closes
    it or dies, or when the caller no longer reads its results."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    try:
        incoming = open(tasks_fd, "rb")
        while True:
            tasks = pickle.load(incoming)  # EOFError at end of file
            while (i := claims.take()) is not None:
                fn, *args = tasks[i]
                try:
                    message = pickle.dumps((i, fn(*args), None), pickle.HIGHEST_PROTOCOL)
                except Exception as err:
                    claims.stop()
                    text = "".join(traceback.format_exception(err))
                    try:
                        message = pickle.dumps((i, None, (err, text)), pickle.HIGHEST_PROTOCOL)
                        pickle.loads(message)
                    except Exception:
                        err = RuntimeError(f"{type(err).__name__}: {err}")
                        message = pickle.dumps((i, None, (err, text)), pickle.HIGHEST_PROTOCOL)
                _send(results_fd, message)
            _send(results_fd, _DONE)
    finally:
        os._exit(0)  # never the caller's atexit hooks or stdio buffers


def _fork_worker(claims: _Claims) -> _Worker:
    tasks_r, tasks_w = os.pipe()
    results_r, results_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (tasks_r, tasks_w, results_r, results_w):
            os.close(fd)
        raise
    if pid == 0:
        # the at-fork hook has dropped the caller's ends of the earlier workers' pipes
        os.close(tasks_w)
        os.close(results_r)
        _POOL_LOCK.acquire()  # a worker's own calls find the pool taken: it starts no workers
        # a fresh context: the tasks run under numpy's default errstate, not
        # under the one the caller happened to be in when it forked
        contextvars.Context().run(_serve, tasks_r, results_w, claims)
    os.close(tasks_r)
    os.close(results_w)
    # one buffered reader for the pipe's life: a byte it reads ahead stays in
    # its buffer for the next message
    return _Worker(pid, tasks_w, open(results_r, "rb"))


def _start_pool() -> _Pool:
    """Fork one worker for each other usable core (none where the platform
    lacks fork or memfd_create); the caller holds _POOL_LOCK."""
    global _POOL
    cores = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    )
    count = cores - 1 if hasattr(os, "fork") and hasattr(os, "memfd_create") else 0
    _POOL = _Pool(None, [])
    try:
        if count:
            _POOL = _Pool(_Claims(), [])
        for _ in range(count):
            # listed as soon as it is forked, so the next worker's fork drops its pipes
            _POOL.workers.append(_fork_worker(_POOL.claims))
    except OSError:
        pass  # the workers that started serve; with none, every call runs in the caller
    return _POOL


def _stop_pool(kill: bool = False) -> None:
    """Close the pipes to the workers, so that each exits at end of file (or
    kill them), and reap them. The next call that needs workers forks new ones."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is None:
        return
    for worker in pool.workers:
        os.close(worker.tasks)
        worker.results.close()
        if kill:
            os.kill(worker.pid, signal.SIGKILL)
    for worker in pool.workers:
        try:
            os.waitpid(worker.pid, 0)
        except ChildProcessError:
            pass  # reaped already, as under signal(SIGCHLD, SIG_IGN)


def _drop_pool_in_child() -> None:
    # a forked child inherits the caller's ends of the workers' pipes, but the
    # workers are not its children; it closes the ends, so that each worker
    # still sees end of file when its caller goes, and starts its own pool
    global _POOL, _POOL_LOCK
    if _POOL is not None:
        for worker in _POOL.workers:
            os.close(worker.tasks)
            worker.results.close()
    _POOL, _POOL_LOCK = None, threading.Lock()


atexit.register(_stop_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool_in_child)


def _pool_map(tasks: Sequence[tuple]) -> list:
    """[fn(*args) for fn, *args in tasks], run in the caller and in the pool's workers.

    Each task is a picklable fn and its picklable args: a module-level
    function, or a functools.partial of one. The caller sends the pickled task
    list to every worker once. Tasks are claimed in list order, the caller and
    the workers each taking the next one from a counter that they share, so a
    caller that lists its longest tasks first gets them started first. The
    results come back in task order, whoever ran the tasks. One call at a time
    uses the workers: a call that finds them taken, or that has a single task,
    runs every task in the caller, in list order. So a caller only ever waits
    on tasks a worker has claimed, and no call can deadlock, however many
    threads call at once. If a task raises, no task is claimed after it, and
    once the running tasks end, the error of the first failed task in task
    order is raised (a worker's with its traceback as the cause). With
    workers, a task that does not pickle raises before any task runs. If a
    worker dies, the caller reruns the task it had claimed; a task is a pure
    function of its args, so the bits stay the same. A worker runs its tasks
    under numpy's default np.errstate, not the caller's (a context variable in
    numpy 2), so no task may rely on it. A patch made in the caller after the
    workers forked never reaches them.
    """
    if len(tasks) > 1 and _POOL_LOCK.acquire(blocking=False):
        try:
            pool = _POOL or _start_pool()
            if pool.workers:
                return _map_on(pool, tasks)
        finally:
            _POOL_LOCK.release()
    return [fn(*args) for fn, *args in tasks]


def _map_on(pool: _Pool, tasks: Sequence[tuple]) -> list:
    payload = pickle.dumps(tasks, pickle.HIGHEST_PROTOCOL)
    claims = pool.claims
    results: dict[int, object] = {}
    errors: dict[int, BaseException] = {}

    def run(i: int) -> None:
        fn, *args = tasks[i]
        try:
            results[i] = fn(*args)
        except Exception as err:
            claims.stop()
            errors[i] = err

    claims.reset(len(tasks))
    intact = False
    try:
        for worker in pool.workers:
            try:
                _send(worker.tasks, payload)
            except BrokenPipeError:
                pass  # a worker that died between calls: its results pipe is at end of file
        while (i := claims.take()) is not None:
            run(i)
        # each worker's results, up to _DONE or, if it died, perhaps in the
        # middle of a message, end of file
        lost = False
        for worker in pool.workers:
            try:
                while (message := pickle.load(worker.results)) is not None:
                    i, value, error = message
                    if error is None:
                        results[i] = value
                    else:
                        err, text = error
                        err.__cause__ = _RemoteTraceback(text)
                        errors[i] = err
            except (EOFError, pickle.UnpicklingError):
                lost = True
        # with no error every task was claimed, so a task with no result is
        # one that a dead worker had claimed: rerun it
        for i in range(len(tasks)):
            if i not in results and not errors:
                run(i)
        intact = not lost
    finally:
        if not intact:  # an interrupt, an unread message or a dead worker: start afresh
            _stop_pool(kill=True)
    if errors:
        raise errors[min(errors)]
    return [results[i] for i in range(len(tasks))]


def stream_moments(fns: Sequence[_ChunkFn], count: int) -> _Moments:
    """Mean and std error of each output of each fn in fns over count rows.

    fn(index, rows) draws chunk index, of the given rows, of its own stream or
    streams with _draw_abs2 and yields its outputs, one per-row array each:
    shape (rows,) for the scalar form, (rows, ...) for the per-coordinate
    form. It must depend on nothing but index and rows, and should yield its
    outputs one at a time: each is reduced to its chunk stats before the next
    is formed, so a chunk drawn once can feed many outputs without their rows
    ever being held together. Each (fn, chunk index) is one _chunk_stats task
    of _pool_map, which runs them in the calling thread and in the pool's
    worker processes, so fn must pickle: a functools.partial of a
    module-level function. Each output's partial stats are then merged in
    chunk order, so each result has the bits of
    `for index, rows in _chunk_rows(count): m.add(list(fn(index, rows))[j])`,
    whatever the other fns and outputs are and whoever ran the tasks. Returns, per fn in order, one RunningMoments.mean_se() per output
    of fn.
    """
    chunks = _chunk_rows(count)
    stats = _pool_map([(_chunk_stats, fn, index, rows) for fn in fns for index, rows in chunks])
    out = []
    for start in range(0, len(stats), len(chunks)):
        moments = [_kernels.RunningMoments() for _ in stats[start]]
        for chunk in stats[start : start + len(chunks)]:
            for m, chunk_stats in zip(moments, chunk, strict=True):
                m.merge(*chunk_stats)
        out.append([m.mean_se() for m in moments])
    return out

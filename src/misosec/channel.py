"""Domain types and reproducible sampling of the Rayleigh-fading wiretap ensemble.

The legitimate channel h and the eavesdropper channel g are i.i.d. circularly
symmetric complex Gaussian vectors. Entry variance sigma^2 means the real and
imaginary parts are each N(0, sigma^2/2), so E[|h_k|^2] = sigma^2 and |h_k|^2
is Exponential with mean sigma^2.

Sampling is chunked and counter-seeded: each chunk of rows derives its own
generator from (seed, stream, chunk_index). Results are therefore a pure
function of the inputs and the seed, no matter how the work is split up or
run in parallel. Types are immutable after construction and safe to share
across threads.

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
cores, in the calling thread and on one process-wide thread pool, and merges
each output's chunk statistics in chunk order in the calling thread. So
every seeded result is bit-identical to running fn(index, rows) over the
chunks one by one, whatever the core count and however many threads call at
once. No route draws the complex entries themselves; the tests keep a complex
reference sampler, which these draws match in distribution.

_pool_map is the pool's one scheduler: the reducer queues its chunks through
it, and the verify suite its probe tasks. Results come back in
task order, whichever thread ran a task, so no output depends on the core
count. A task on a worker does not see the caller's np.errstate, which is a
context variable in numpy 2 and does not pass to pool threads.
"""
from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
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


def _new_pool() -> ThreadPoolExecutor:
    # the thread that queues the tasks runs them too (see _pool_map), so one
    # worker per other core the process may run on keeps them all busy
    cores = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    )
    return ThreadPoolExecutor(max_workers=max(cores - 1, 1), thread_name_prefix="misosec-chunk")


# the package's only thread pool: every Monte Carlo chunk and verify task of
# the process runs here or in its caller; the workers start on first use
_POOL = _new_pool()


def _renew_pool_in_child() -> None:
    # a forked child inherits the pool but none of its threads
    global _POOL
    _POOL = _new_pool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_pool_in_child)


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
    # SeedSequence entropy words must be nonnegative; fold negative seeds
    return np.random.default_rng(np.random.SeedSequence((seed % 2**63, stream, index)))


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


def _pool_map(tasks: Sequence[tuple]) -> list:
    """[fn(*args) for fn, *args in tasks], run on the shared pool and in the caller.

    Every task is queued at once. The calling thread works too: it runs the
    tasks no worker has started, from the last one back, while the workers
    take them from the first one on. The results come back in task order,
    whichever threads ran the tasks. The caller only ever waits on tasks a
    worker is running, so a call cannot deadlock, however many threads call
    at once. If a task raises, the tasks nobody has started are dropped and
    the error is raised. A task on a worker does not see the caller's
    np.errstate (a context variable in numpy 2), so no task may rely on it.
    """
    futures = [_POOL.submit(*task) for task in tasks]
    mine = {}
    try:
        for i in reversed(range(len(tasks))):
            if futures[i].cancel():
                fn, *args = tasks[i]
                mine[i] = fn(*args)
        return [mine[i] if i in mine else future.result() for i, future in enumerate(futures)]
    finally:
        # after a failure, drop the tasks nobody has started
        for future in futures:
            future.cancel()


def stream_moments(fns: Sequence[_ChunkFn], count: int) -> _Moments:
    """Mean and std error of each output of each fn in fns over count rows.

    fn(index, rows) draws chunk index, of the given rows, of its own stream or
    streams with _draw_abs2 and yields its outputs, one per-row array each:
    shape (rows,) for the scalar form, (rows, ...) for the per-coordinate
    form. It must depend on nothing but index and rows, and should yield its
    outputs one at a time: each is reduced to its chunk stats before the next
    is formed, so a chunk drawn once can feed many outputs without their rows
    ever being held together. Each (fn, chunk index) is one _chunk_stats task
    of _pool_map, which runs them on the shared pool and in the calling
    thread. Each output's partial stats are then merged in chunk order, so
    each result has the bits of
    `for index, rows in _chunk_rows(count): m.add(list(fn(index, rows))[j])`,
    whatever the other fns and outputs are and whichever threads ran the
    tasks. Returns, per fn in order, one RunningMoments.mean_se() per output
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

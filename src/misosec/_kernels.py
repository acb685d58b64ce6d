"""Per-sample kernels behind the Monte Carlo estimators, and the streaming
reducer arithmetic that averages them (channel.stream_moments schedules it).

The kernels are vectorized numpy, pure and side-effect free. The two that
every Monte Carlo chunk runs, coupled_integrand and log_rate, allocate one
output array each and work in it in place; lemma_difference works in its
two quadratic forms' buffers and one more. Results are exactly reproducible
for a given numpy build.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

_LN2 = math.log(2.0)


def quad_form(abs2: FloatArray, d: FloatArray) -> FloatArray:
    """Row-wise quadratic form: out[i] = sum_k d[k] * abs2[i, k]."""
    if d.shape[0] == 1:
        # a one-term sum is the product itself, the same bits as abs2 @ d,
        # which spends several times longer on BLAS's per-row dot setup
        return abs2[:, 0] * d[0]
    return abs2 @ d


def coupled_integrand(q: FloatArray, a: float) -> FloatArray:
    """Per-sample secrecy integrand log2(a+q) - log2(a) - log2(1+q), as one log1p.

    The three logs agree to within about |1-a| and cancel as a -> 1, so the
    integrand is formed as the log of the ratio (a+q) / (a(1+q)) instead, with
    a log1p argument that is never negative:

        a <= 1:  log1p(((1-a)/a) * q/(1+q)) / ln 2,
        a > 1:  -log1p(((a-1)/a) * q/(1+q/a)) / ln 2.

    No factor overflows or cancels: (1-a)/a < 1/a, (a-1)/a <= 1, q/(1+q) < 1
    and q/(1+q/a) < a. The first form alone would serve every a, but for a > 1
    its argument is negative, and once a >= 2^53 (1-a)/a rounds to -1, so
    log1p would meet -1. The result is within a few ulps of the exact
    integrand and exactly zero elementwise when a == 1 or q == 0.
    """
    if a <= 1.0:
        scale, sign = (1.0 - a) / a, 1.0
        out = np.add(q, 1.0)
    else:
        scale, sign = (a - 1.0) / a, -1.0
        out = np.divide(q, a)
        out += 1.0
    np.divide(q, out, out=out)
    out *= scale
    np.log1p(out, out=out)
    out *= sign / _LN2
    return out


def log_rate(q: FloatArray) -> FloatArray:
    """Per-sample rate term log2(1 + q), formed in one output array."""
    out = np.add(q, 1.0)
    return np.log2(out, out=out)


def lemma_difference(abs2: FloatArray, d1: FloatArray, d2: FloatArray, a: float) -> FloatArray:
    """Per-sample f(q2) - f(q1) for f(q) = log2(a+q) - log2(1+q), q_i = quad_form(abs2, d_i).

    Formed as log1p((1-a)(q2-q1) / ((1+q2)(a+q1))) / ln 2, the one log of the
    ratio (a+q2)(1+q1) / ((1+q2)(a+q1)), with q2 - q1 = quad_form(abs2, d2 - d1).
    The four logs of f(q2) - f(q1) agree to within about 1-a, so subtracting
    them loses relative accuracy as a -> 1; this form keeps it, and is
    exactly 0 when d1 == d2.
    """
    q1 = quad_form(abs2, d1)
    dq = quad_form(abs2, d2 - d1)
    # the expression's own order, in place: den = (1 + q1 + dq) * (a + q1),
    # then (1-a) dq / den, log1p and / ln 2 in dq's buffer
    den = np.add(q1, 1.0)
    den += dq
    q1 += a
    den *= q1
    dq *= 1.0 - a
    np.divide(dq, den, out=dq)
    np.log1p(dq, out=dq)
    dq /= _LN2
    return dq


def grad_weights(q: FloatArray, a: float) -> FloatArray:
    """Per-sample gradient weight (1/(a+q) - 1/(1+q)) / ln 2; positive when a < 1."""
    return (1.0 / (a + q) - 1.0 / (1.0 + q)) / _LN2


class RunningMoments:
    """Streaming sample mean and standard error, fed one chunk at a time.

    Axis 0 of a chunk indexes samples. A 1-D chunk gives the scalar form; any
    trailing axes are separate coordinates (the per-coordinate form).

    The work is split in two halves. chunk(x) forms one chunk's
    (rows, total, m2): its np.sum total and its centred sum of squares. It is
    pure, so workers may run it on many chunks at once. merge folds those
    stats in with the update of Chan, Golub & LeVeque (1979), which avoids
    the cancellation of total_sq - n * mean^2 when the spread is small
    against the mean; add(x) is merge(*chunk(x)). The mean is the sum of the
    merged totals divided by n. Merging depends on its order in floating
    point, so the invariant is the merge order: the same chunks merged in
    the same order give the same bits, whichever threads formed them.
    """

    def __init__(self) -> None:
        self.n = 0
        self.total: float | FloatArray = 0.0
        self.m2: float | FloatArray = 0.0

    @staticmethod
    def chunk(x: FloatArray) -> tuple[int, float | FloatArray, float | FloatArray]:
        """One chunk's (rows, total, centred sum of squares) along axis 0."""
        rows = x.shape[0]
        total = np.sum(x, axis=0)
        dev = x - total / rows
        dev *= dev
        return rows, total, np.sum(dev, axis=0)

    def merge(self, rows: int, total: float | FloatArray, m2: float | FloatArray) -> None:
        """Fold in the stats of the next chunk, as chunk() formed them."""
        if self.n:
            delta = total / rows - self.total / self.n
            m2 = m2 + delta * delta * (self.n * rows / (self.n + rows))
        self.total = self.total + total
        self.m2 = self.m2 + m2
        self.n += rows

    def add(self, x: FloatArray) -> None:
        self.merge(*self.chunk(x))

    def mean_se(self) -> tuple[float | FloatArray, float | FloatArray]:
        """(mean, std_error of the mean); floats in the scalar form.

        One sample has a centred sum of squares of exactly 0, so its
        std_error is 0.
        """
        mean = self.total / self.n
        se = np.sqrt(self.m2 / max(self.n - 1, 1) / self.n)
        if np.ndim(mean) == 0:
            return float(mean), float(se)
        return mean, se

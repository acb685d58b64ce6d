"""Per-sample kernels behind the Monte Carlo estimators, and the streaming
reducer that averages them.

The kernels are vectorized numpy, pure and side-effect free. Results are
exactly reproducible for a given numpy build.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

_LN2 = math.log(2.0)


def quad_form(abs2: FloatArray, d: FloatArray) -> FloatArray:
    """Row-wise quadratic form: out[i] = sum_k d[k] * abs2[i, k]."""
    return abs2 @ d


def coupled_integrand(q: FloatArray, a: float) -> FloatArray:
    """Per-sample secrecy integrand log2(a+q) - log2(a) - log2(1+q).

    Exactly zero elementwise when a == 1 (both log terms coincide) and when
    q == 0 (the two a-terms cancel).
    """
    return np.log2(a + q) - np.log2(a) - np.log2(1.0 + q)


def log_rate(q: FloatArray) -> FloatArray:
    """Per-sample rate term log2(1 + q)."""
    return np.log2(1.0 + q)


def grad_weights(q: FloatArray, a: float) -> FloatArray:
    """Per-sample gradient weight (1/(a+q) - 1/(1+q)) / ln 2; positive when a < 1."""
    return (1.0 / (a + q) - 1.0 / (1.0 + q)) / _LN2


class RunningMoments:
    """Streaming sample mean and standard error, fed one chunk at a time.

    Axis 0 of a chunk indexes samples. A 1-D chunk gives the scalar form; any
    trailing axes are separate coordinates (the per-coordinate form).

    The mean is the sum of the per-chunk np.sum totals divided by n. The
    variance merges each chunk's centred sum of squares with the update of
    Chan, Golub & LeVeque (1979), so it avoids the cancellation of
    total_sq - n * mean^2 when the spread is small against the mean.
    """

    def __init__(self) -> None:
        self.n = 0
        self.total: float | FloatArray = 0.0
        self.m2: float | FloatArray = 0.0

    def add(self, x: FloatArray) -> None:
        rows = x.shape[0]
        chunk_total = np.sum(x, axis=0)
        chunk_mean = chunk_total / rows
        dev = x - chunk_mean
        m2 = np.sum(dev * dev, axis=0)
        if self.n:
            delta = chunk_mean - self.total / self.n
            m2 = m2 + delta * delta * (self.n * rows / (self.n + rows))
        self.total = self.total + chunk_total
        self.m2 = self.m2 + m2
        self.n += rows

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

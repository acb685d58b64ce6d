"""Complex Gaussian reference draws of the channel, for distribution tests.

The package draws |g_k|^2 directly. These draw the CN(0, sigma^2) entries
from the same counter-seeded chunk generators, as the reference for those.
"""
import math

import numpy as np

from misosec import _kernels
from misosec.channel import CHUNK, _chunk_rng, _chunk_rows

# substream tag of the Haar unitary, disjoint from the package's tags
STREAM_UNITARY = 3


def sample_channel(sigma, n_t, count, seed, stream):
    """count rows of n_t CN(0, sigma^2) entries: real and imaginary parts N(0, sigma^2/2)."""
    out = np.empty((count, n_t), dtype=np.complex128)
    for index, rows in _chunk_rows(count):
        rng = _chunk_rng(seed, stream, index)
        re = rng.standard_normal((rows, n_t))
        im = rng.standard_normal((rows, n_t))
        start = index * CHUNK
        out[start : start + rows] = (re + 1j * im) * (sigma * math.sqrt(0.5))
    return out


def quadratic_form(gains, d):
    """Per-row sum_k d_k |g_k|^2 of complex draws."""
    return _kernels.quad_form(gains.real**2 + gains.imag**2, np.asarray(d, dtype=np.float64))


def random_unitary(n, seed):
    """Haar-distributed n x n unitary via phase-fixed QR of a Gaussian draw."""
    rng = _chunk_rng(seed, STREAM_UNITARY, 0)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))

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

The Monte Carlo estimators only need |g_k|^2, so iter_abs2 draws it directly:
one standard_exponential((rows, n_t)) block per (seed, stream, chunk), scaled
by sigma^2. sample_channel draws the complex entries themselves; it is the
model-faithful reference that iter_abs2 matches in distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np
from numpy.typing import NDArray

from . import _kernels

# rows per sampling chunk; fixed so chunk boundaries never depend on workers
CHUNK = 1 << 15

# disjoint substream tags
STREAM_LEGITIMATE = 0
STREAM_EAVESDROPPER = 1
STREAM_GENERIC = 2
STREAM_UNITARY = 3


class Side(Enum):
    """Which channel of the wiretap pair to draw."""

    LEGITIMATE = "legitimate"
    EAVESDROPPER = "eavesdropper"


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
        if not isinstance(self.n_t, (int, np.integer)) or isinstance(self.n_t, bool):
            raise ValueError(f"n_t must be an integer, got {self.n_t!r}")
        if self.n_t < 1:
            raise ValueError(f"n_t must be >= 1, got {self.n_t}")
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

    def scale(self, side: Side) -> float:
        return self.sigma_h if side is Side.LEGITIMATE else self.sigma_g


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
        if n_t < 1:
            raise ValueError(f"n_t must be >= 1, got {n_t}")
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
    and n_samples its node count. Clamps to exactly 0 carry std_error 0.
    """

    mean: float
    std_error: float
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")


@dataclass(frozen=True)
class ComplexGainMatrix:
    """Batched channel draws: one row per realization, one column per antenna."""

    entries: NDArray[np.complex128]
    scale: float

    def __post_init__(self) -> None:
        if self.entries.ndim != 2:
            raise ValueError(f"entries must be 2-D, got shape {self.entries.shape}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        self.entries.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def _chunk_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    # SeedSequence entropy words must be nonnegative; fold negative seeds
    return np.random.default_rng(np.random.SeedSequence((seed % 2**63, stream, index)))


def _complex_chunk(
    rng: np.random.Generator, rows: int, cols: int, sigma: float
) -> NDArray[np.complex128]:
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) * (sigma * math.sqrt(0.5))


def iter_abs2(
    sigma: float, n_t: int, count: int, seed: int, stream: int
) -> Iterator[NDArray[np.float64]]:
    """Yield chunks of squared entry magnitudes |g_ik|^2, CHUNK rows at a time.

    |g_ik|^2 of a CN(0, sigma^2) entry is Exponential with mean sigma^2, so
    each chunk is one standard_exponential((rows, n_t)) block from the
    (seed, stream, chunk) generator, scaled by sigma^2. The values agree with
    squaring sample_channel draws in distribution, not draw for draw.
    Streaming avoids materializing count x n_t matrices for large Monte Carlo
    runs.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    scale = sigma * sigma
    done = 0
    index = 0
    while done < count:
        rows = min(CHUNK, count - done)
        abs2 = _chunk_rng(seed, stream, index).standard_exponential((rows, n_t))
        abs2 *= scale
        yield abs2
        done += rows
        index += 1


def sample_channel(
    model: ChannelModel, side: Side, count: int, seed: int
) -> ComplexGainMatrix:
    """Draw count independent realizations of the selected channel.

    Deterministic in (model, side, count, seed). The legitimate and
    eavesdropper sides use disjoint substreams, so mixed-side experiments
    never share randomness by accident.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    sigma = model.scale(side)
    stream = STREAM_LEGITIMATE if side is Side.LEGITIMATE else STREAM_EAVESDROPPER
    out = np.empty((count, model.n_t), dtype=np.complex128)
    done = 0
    index = 0
    while done < count:
        rows = min(CHUNK, count - done)
        out[done : done + rows] = _complex_chunk(
            _chunk_rng(seed, stream, index), rows, model.n_t, sigma
        )
        done += rows
        index += 1
    return ComplexGainMatrix(entries=out, scale=sigma)


def quadratic_form(
    gains: ComplexGainMatrix, alloc: PowerAllocation
) -> NDArray[np.float64]:
    """Per-row value of the form sum_k d_k |g_k|^2; always nonnegative."""
    if gains.cols != alloc.n_t:
        raise ValueError(
            f"dimension mismatch: gains have {gains.cols} columns, allocation has {alloc.n_t}"
        )
    abs2 = gains.entries.real**2 + gains.entries.imag**2
    return _kernels.quad_form(abs2, alloc.as_array())


def random_unitary(n: int, seed: int) -> NDArray[np.complex128]:
    """Haar-distributed n x n unitary via phase-fixed QR of a Gaussian draw."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = _chunk_rng(seed, STREAM_UNITARY, 0)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


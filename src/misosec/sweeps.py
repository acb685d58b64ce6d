"""Parameter sweeps over SNR or antenna count, with deterministic CSV emission.

Both sweeps share one code path. The grid splits into evaluation groups, each
one model, the total powers of its points and one seed derived from the
sweep's seed (recorded in every row it gives). An SNR sweep is one group:
its model does not change along the grid, so every point is evaluated on the
same draws at point_seed(seed, 0), the common-random-numbers design, which
draws each chunk once for the whole grid and makes the differences between
rows less noisy. An antenna sweep has one group per point i, at
point_seed(seed, i). The sweep is one rates._capacities call on the calling
thread, the evaluator behind secrecy_capacity, and each power of each group
gets the bits of its own call, so a row can be reproduced by calling
secrecy_capacity with the row's parameters and seed. For the Monte Carlo
routes every group's chunk fns go to one channel.stream_moments call, which
runs each chunk as a task in the calling thread and in the one shared chunk
pool's worker processes, claimed in grid order with no wait at a group's
end, and merges them in chunk order; that pool is the sweeps' only
parallelism. Rows come back in grid order.
The CSV columns are SweepRow's fields in declaration order. Identical spec +
seed produces a byte-identical file.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .channel import ChannelModel
from .rates import EvalMethod, _capacities, asymptote_high_snr, asymptote_large_nt

_POINT_TAG = 13


class SweepKind(Enum):
    SNR = "snr"
    ANTENNAS = "antennas"


def _db_to_power(snr_db: float) -> float:
    """Total power P = 10^(dB/10); a non-finite SNR or power is an invalid argument."""
    try:
        P = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        P = math.inf
    if not (math.isfinite(snr_db) and math.isfinite(P)):
        raise ValueError(f"SNR must be finite and give a finite power, got {snr_db} dB")
    return P


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: what varies (SNR in dB, or n_t), what stays fixed, how to evaluate.

    For antenna sweeps the model's n_t is ignored (the grid supplies it) and
    power is the fixed total power. For SNR sweeps power is derived per point
    as 10^(dB/10), which must be finite, and the power field must stay None.
    """

    sweep_kind: SweepKind
    model: ChannelModel
    grid: tuple[float, ...]
    method: EvalMethod
    power: float | None = None
    output_path: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", tuple(self.grid))
        if len(self.grid) == 0:
            raise ValueError("sweep grid must be nonempty")
        if not all(math.isfinite(v) for v in self.grid):
            raise ValueError(f"sweep grid values must be finite, got {self.grid}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError(f"sweep grid must be strictly increasing, got {self.grid}")
        if self.sweep_kind is SweepKind.ANTENNAS:
            if any(int(v) != v or v < 1 for v in self.grid):
                raise ValueError(f"antenna grid must hold integers >= 1, got {self.grid}")
            for n_t in self.grid:  # each point's model must exist, e.g. n_t <= sys.maxsize
                replace(self.model, n_t=int(n_t))
            if self.power is None:
                raise ValueError("antenna sweeps need a fixed power")
            if not (math.isfinite(self.power) and self.power >= 0):
                raise ValueError(f"power must be finite and >= 0, got {self.power}")
        elif self.power is not None:
            raise ValueError("SNR sweeps derive power from the grid; leave power unset")
        else:
            for snr_db in self.grid:
                _db_to_power(snr_db)


@dataclass(frozen=True)
class SweepRow:
    """One CSV record: its fields, in order, are the columns; floats are written as exact reprs."""

    sweep_kind: str
    sweep_value: float
    n_t: int
    sigma_h: float
    sigma_g: float
    P: float
    method: str
    capacity_bits: float
    std_error_bits: float
    asymptote_bits: float
    seed: int

    def __post_init__(self) -> None:
        if self.std_error_bits < 0:
            raise ValueError(f"std_error_bits must be >= 0, got {self.std_error_bits}")

    def as_csv(self) -> str:
        # format by declared type, so an int sigma still writes 1.0; annotations
        # are postponed, so f.type is the type's name
        return ",".join(
            repr(float(getattr(self, f.name))) if f.type == "float" else str(getattr(self, f.name))
            for f in fields(self)
        )


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def point_seed(base_seed: int, index: int) -> int:
    """Derived per-point seed, recorded in the emitted row."""
    return int(
        np.random.SeedSequence((base_seed % 2**63, _POINT_TAG, index)).generate_state(1)[0]
    )


# one evaluation group: its model, its grid values, their powers, and the
# method carrying the group's seed
_Group = tuple[ChannelModel, tuple[float, ...], tuple[float, ...], EvalMethod]


def _groups(spec: SweepSpec) -> list[_Group]:
    """The sweep's evaluation groups, in grid order.

    An SNR sweep is one group over every grid point at point_seed(base, 0):
    its model, and so its draws, stay the same along the grid. An antenna
    sweep has one group per point i, at point_seed(base, i).
    """
    base = spec.method.seed
    if spec.sweep_kind is SweepKind.SNR:
        powers = tuple(_db_to_power(snr_db) for snr_db in spec.grid)
        return [(spec.model, spec.grid, powers, replace(spec.method, seed=point_seed(base, 0)))]
    return [
        (replace(spec.model, n_t=int(n_t)), (n_t,), (float(spec.power),),
         replace(spec.method, seed=point_seed(base, i)))
        for i, n_t in enumerate(spec.grid)
    ]


def _sweep(spec: SweepSpec, kind: SweepKind) -> list[SweepRow]:
    """One row per grid point, all groups evaluated in one _capacities call;
    writes the CSV if asked."""
    if spec.sweep_kind is not kind:
        raise ValueError(f"expected a {kind.value!r} sweep, got {spec.sweep_kind.value!r}")
    groups = _groups(spec)
    capacities = _capacities([(model, powers, method) for model, _, powers, method in groups])
    rows = [
        SweepRow(
            sweep_kind=kind.value,
            sweep_value=float(value),
            n_t=model.n_t,
            sigma_h=model.sigma_h,
            sigma_g=model.sigma_g,
            P=P,
            method=method.tag.value,
            capacity_bits=est.mean,
            std_error_bits=est.std_error,
            asymptote_bits=(
                asymptote_high_snr(model) if kind is SweepKind.SNR
                else asymptote_large_nt(model, P)
            ),
            seed=method.seed,
        )
        for (model, values, powers, method), estimates in zip(groups, capacities)
        for value, P, est in zip(values, powers, estimates)
    ]
    if spec.output_path is not None:
        write_csv(spec.output_path, rows)
    return rows


def run_sweep_snr(spec: SweepSpec) -> list[SweepRow]:
    """One row per SNR grid point (dB); capacity plus the high-power limit."""
    return _sweep(spec, SweepKind.SNR)


def run_sweep_antennas(spec: SweepSpec) -> list[SweepRow]:
    """One row per antenna count at fixed power; capacity plus the many-antenna limit."""
    return _sweep(spec, SweepKind.ANTENNAS)


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """Header plus one line per row, LF endings, floats as exact reprs."""
    return "\n".join([CSV_HEADER, *(row.as_csv() for row in rows)]) + "\n"


def write_csv(path: str, rows: Sequence[SweepRow]) -> None:
    try:
        with open(path, "w", newline="") as handle:
            handle.write(rows_to_csv(rows))
    except OSError as exc:
        raise OSError(f"failed writing sweep output to {path}: {exc}") from exc

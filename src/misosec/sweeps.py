"""Parameter sweeps over SNR or antenna count, with deterministic CSV emission.

Both sweeps share one code path. Each grid point gives a model, a total power
and the matching asymptote, is evaluated with its own derived seed (recorded
in the output), and becomes one SweepRow, so a row can be reproduced by
calling secrecy_capacity with the row's parameters and seed. Points run on
a few point threads, one per usable core at most. For the Monte Carlo
routes each point's chunks go through channel.stream_moments, which runs
them on the point's thread and on the one shared chunk pool and merges
them in chunk order; running points side by side keeps that pool fed
across point boundaries.
Rows come back ordered by sweep value no matter which point finishes first.
The CSV columns are SweepRow's fields in declaration order. Identical spec +
seed produces a byte-identical file.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .channel import USABLE_CORES, ChannelModel
from .rates import (
    EvalMethod,
    asymptote_high_snr,
    asymptote_large_nt,
    secrecy_capacity,
)

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


def _sweep(spec: SweepSpec, kind: SweepKind) -> list[SweepRow]:
    """One row per grid point, evaluated on point threads; writes the CSV if asked."""
    if spec.sweep_kind is not kind:
        raise ValueError(f"expected a {kind.value!r} sweep, got {spec.sweep_kind.value!r}")

    def eval_point(i: int) -> SweepRow:
        value = float(spec.grid[i])
        if kind is SweepKind.SNR:
            model = spec.model
            P = _db_to_power(value)
            limit = asymptote_high_snr(model)
        else:
            model = replace(spec.model, n_t=int(value))
            P = float(spec.power)
            limit = asymptote_large_nt(model, P)
        method = replace(spec.method, seed=point_seed(spec.method.seed, i))
        est = secrecy_capacity(model, P, method)
        return SweepRow(
            sweep_kind=kind.value,
            sweep_value=value,
            n_t=model.n_t,
            sigma_h=model.sigma_h,
            sigma_g=model.sigma_g,
            P=P,
            method=method.tag.value,
            capacity_bits=est.mean,
            std_error_bits=est.std_error,
            asymptote_bits=limit,
            seed=method.seed,
        )

    with ThreadPoolExecutor(max_workers=min(len(spec.grid), USABLE_CORES)) as pool:
        rows = list(pool.map(eval_point, range(len(spec.grid))))
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

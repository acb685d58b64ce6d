"""Parameter sweeps over SNR or antenna count, with deterministic CSV emission.

Each sweep point gets its own derived seed (recorded in the output), so a row
can be reproduced by calling secrecy_capacity with the row's parameters and
seed. Points run concurrently; rows come back ordered by sweep value no
matter which point finishes first. Identical spec + seed produces a
byte-identical file.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .channel import ChannelModel
from .rates import (
    EvalMethod,
    asymptote_high_snr,
    asymptote_large_nt,
    secrecy_capacity,
)

CSV_HEADER = (
    "sweep_kind,sweep_value,n_t,sigma_h,sigma_g,P,method,"
    "capacity_bits,std_error_bits,asymptote_bits,seed"
)

_POINT_TAG = 13


class SweepKind(Enum):
    SNR = "snr"
    ANTENNAS = "antennas"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: what varies (SNR in dB, or n_t), what stays fixed, how to evaluate.

    For antenna sweeps the model's n_t is ignored (the grid supplies it) and
    power is the fixed total power. For SNR sweeps power is derived per point
    as 10^(dB/10) and the power field must stay None.
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


@dataclass(frozen=True)
class SweepRow:
    """One CSV record; field order matches the emitted columns."""

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
        cells = (
            self.sweep_kind,
            repr(float(self.sweep_value)),
            str(self.n_t),
            repr(float(self.sigma_h)),
            repr(float(self.sigma_g)),
            repr(float(self.P)),
            self.method,
            repr(float(self.capacity_bits)),
            repr(float(self.std_error_bits)),
            repr(float(self.asymptote_bits)),
            str(self.seed),
        )
        return ",".join(cells)


def point_seed(base_seed: int, index: int) -> int:
    """Derived per-point seed, recorded in the emitted row."""
    return int(
        np.random.SeedSequence((base_seed % 2**63, _POINT_TAG, index)).generate_state(1)[0]
    )


def _run_points(fn, count: int) -> list[SweepRow]:
    workers = min(count, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def run_sweep_snr(spec: SweepSpec) -> list[SweepRow]:
    """One row per SNR grid point (dB); capacity plus the high-power limit."""
    if spec.sweep_kind is not SweepKind.SNR:
        raise ValueError(f"expected an SNR sweep, got {spec.sweep_kind}")
    model = spec.model
    limit = asymptote_high_snr(model)

    def eval_point(i: int) -> SweepRow:
        snr_db = float(spec.grid[i])
        P = 10.0 ** (snr_db / 10.0)
        method = replace(spec.method, seed=point_seed(spec.method.seed, i))
        est = secrecy_capacity(model, P, method)
        return SweepRow(
            sweep_kind=SweepKind.SNR.value,
            sweep_value=snr_db,
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

    rows = _run_points(eval_point, len(spec.grid))
    if spec.output_path is not None:
        write_csv(spec.output_path, rows)
    return rows


def run_sweep_antennas(spec: SweepSpec) -> list[SweepRow]:
    """One row per antenna count at fixed power; capacity plus the many-antenna limit."""
    if spec.sweep_kind is not SweepKind.ANTENNAS:
        raise ValueError(f"expected an antenna sweep, got {spec.sweep_kind}")
    P = float(spec.power)

    def eval_point(i: int) -> SweepRow:
        n_t = int(spec.grid[i])
        model = ChannelModel(n_t=n_t, sigma_h=spec.model.sigma_h, sigma_g=spec.model.sigma_g)
        method = replace(spec.method, seed=point_seed(spec.method.seed, i))
        est = secrecy_capacity(model, P, method)
        return SweepRow(
            sweep_kind=SweepKind.ANTENNAS.value,
            sweep_value=float(n_t),
            n_t=n_t,
            sigma_h=model.sigma_h,
            sigma_g=model.sigma_g,
            P=P,
            method=method.tag.value,
            capacity_bits=est.mean,
            std_error_bits=est.std_error,
            asymptote_bits=asymptote_large_nt(model, P),
            seed=method.seed,
        )

    rows = _run_points(eval_point, len(spec.grid))
    if spec.output_path is not None:
        write_csv(spec.output_path, rows)
    return rows


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """Header plus one line per row, LF endings, floats as exact reprs."""
    return "\n".join([CSV_HEADER, *(row.as_csv() for row in rows)]) + "\n"


def write_csv(path: str, rows: Sequence[SweepRow]) -> None:
    try:
        with open(path, "w", newline="") as handle:
            handle.write(rows_to_csv(rows))
    except OSError as exc:
        raise OSError(f"failed writing sweep output to {path}: {exc}") from exc

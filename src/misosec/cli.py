"""Command-line front end.

Subcommands: capacity, optimize, verify, sweep-snr, sweep-nt. Every flag can
also be supplied through a plain key=value config file (--config); explicit
flags override file values. SNR is total power in dB: P = 10^(dB/10).

Exit codes: 0 success, 1 runtime or numeric failure (including violated
verification margins), 2 invalid arguments or violated preconditions.
"""
from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Sequence

import numpy as np

from .channel import ChannelModel
from .optimize import OptimizerConfig, optimize_allocation
from .rates import (
    DEFAULT_MC_SAMPLES,
    EvalMethod,
    asymptote_high_snr,
    secrecy_capacity,
)
from .sweeps import SweepKind, SweepSpec, _db_to_power, _sweep, rows_to_csv
from .verify import run_verify_suite

_METHODS = {
    "direct": EvalMethod.direct_mc,
    "coupled": EvalMethod.coupled_mc,
    "quad": lambda n_samples, seed: EvalMethod.quadrature(),
}

# every flag reachable through the config file, with its parser
_CASTS: dict[str, Callable[[str], object]] = {
    "ntx": int,
    "sigma_h": float,
    "sigma_g": float,
    "snr_db": float,
    "snr_grid": str,
    "nt_grid": str,
    "samples": int,
    "method": str,
    "seed": int,
    "out": str,
    "iters": int,
}


def _load_config(path: str) -> dict[str, object]:
    values: dict[str, object] = {}
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CASTS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _CASTS[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _merge_config(ns: argparse.Namespace) -> None:
    # config supplies defaults; flags given on the command line win
    if getattr(ns, "config", None) is None:
        return
    for key, value in _load_config(ns.config).items():
        if getattr(ns, key, None) is None:
            setattr(ns, key, value)


def _require(ns: argparse.Namespace, *keys: str) -> None:
    missing = [k for k in keys if getattr(ns, k, None) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ValueError(f"missing required arguments: {flags}")


def _fill(ns: argparse.Namespace, **defaults: object) -> None:
    for key, value in defaults.items():
        if getattr(ns, key, None) is None:
            setattr(ns, key, value)


def _model(ns: argparse.Namespace) -> ChannelModel:
    _require(ns, "ntx", "sigma_h", "sigma_g")
    return ChannelModel(n_t=ns.ntx, sigma_h=ns.sigma_h, sigma_g=ns.sigma_g)


def _method(ns: argparse.Namespace) -> EvalMethod:
    _fill(ns, method="coupled", samples=DEFAULT_MC_SAMPLES, seed=0)
    name = ns.method
    if name not in _METHODS:
        raise ValueError(f"unknown method {name!r}; choose from direct, coupled, quad")
    return _METHODS[name](n_samples=ns.samples, seed=ns.seed)


def _parse_grid(text: str, kind: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ValueError(f"bad {kind} grid {text!r}: {exc}") from exc
    if not values:
        raise ValueError(f"{kind} grid is empty")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{kind} grid values must be finite, got {text!r}")
    return values


def _print_estimate(label: str, est) -> None:
    print(f"{label}_bits={est.mean!r} std_error_bits={est.std_error!r} "
          f"n={est.n_samples} seed={est.seed}")


def _cmd_capacity(ns: argparse.Namespace) -> int:
    model = _model(ns)
    _require(ns, "snr_db")
    method = _method(ns)
    P = _db_to_power(ns.snr_db)
    est = secrecy_capacity(model, P, method)
    print(f"n_t={model.n_t} sigma_h={model.sigma_h!r} sigma_g={model.sigma_g!r} "
          f"P={P!r} method={method.tag.value}")
    _print_estimate("capacity", est)
    print(f"asymptote_high_snr_bits={asymptote_high_snr(model)!r}")
    return 0


def _cmd_optimize(ns: argparse.Namespace) -> int:
    model = _model(ns)
    _require(ns, "snr_db")
    _fill(ns, seed=0, iters=OptimizerConfig.max_iters)
    P = _db_to_power(ns.snr_db)
    if model.sigma_h <= model.sigma_g:
        # degenerate regime: nothing to optimize, the capacity is 0
        print("degenerate regime sigma_h <= sigma_g: capacity 0, optimization skipped")
        print("capacity_bits=0.0 std_error_bits=0.0")
        return 0
    trace = optimize_allocation(model, P, OptimizerConfig(max_iters=ns.iters, seed=ns.seed))
    final = trace.final.as_array()
    deviation = float(np.max(np.abs(final - P / model.n_t)))
    print(f"converged={trace.converged} iterations={len(trace.iterates) - 1}")
    print(f"allocation={[float(x) for x in final]!r}")
    print(f"max_dev_from_uniform={deviation!r}")
    _print_estimate("objective", trace.objective_values[-1])
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    result = run_verify_suite(ns.seed or 0, run_optimizer=not ns.skip_optimizer)
    for name, report in result.checks:
        status = "PASS" if report.holds else "FAIL"
        print(f"{status} {name} min_margin={report.min_margin!r}")
        print(f"  grid: {report.grid}")
        print(f"  worst: {report.worst.point} margin={report.worst.margin!r}")
    if not ns.skip_optimizer:
        print(f"{'PASS' if result.optimizer_ok else 'FAIL'} optimizer_uniform "
              f"max_dev={result.optimizer_deviation!r} tol={result.optimizer_tol!r}")
    return result.exit_code


def _cmd_sweep(ns: argparse.Namespace) -> int:
    method = _method(ns)
    if ns.kind is SweepKind.SNR:
        _require(ns, "snr_grid")
        grid = _parse_grid(ns.snr_grid, "SNR")
        model = _model(ns)
        power = None
    else:
        _require(ns, "nt_grid", "snr_db", "sigma_h", "sigma_g")
        grid = _parse_grid(ns.nt_grid, "antenna")
        # the per-point n_t comes from the grid; the model just carries the scales
        model = ChannelModel(n_t=max(int(v) for v in grid), sigma_h=ns.sigma_h, sigma_g=ns.sigma_g)
        power = _db_to_power(ns.snr_db)
    spec = SweepSpec(
        sweep_kind=ns.kind,
        model=model,
        grid=grid,
        method=method,
        power=power,
        output_path=ns.out,
    )
    rows = _sweep(spec, ns.kind)
    if spec.output_path is None:
        sys.stdout.write(rows_to_csv(rows))
    else:
        print(f"wrote {spec.output_path} ({len(rows)} rows)")
    return 0


def _add_common(parser: argparse.ArgumentParser, *, sigmas: bool = True) -> None:
    parser.add_argument("--config", help="key=value file supplying defaults for any flag")
    parser.add_argument("--seed", type=int, default=None)
    if sigmas:
        parser.add_argument("--sigma-h", dest="sigma_h", type=float, default=None)
        parser.add_argument("--sigma-g", dest="sigma_g", type=float, default=None)


def _add_method(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=sorted(_METHODS), default=None)
    parser.add_argument("--samples", type=int, default=None,
                        help=f"MC samples per expectation (default {DEFAULT_MC_SAMPLES})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misosec",
        description="Ergodic secrecy capacity of Rayleigh MISO wiretap channels "
        "with statistical-only transmitter CSI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="secrecy capacity at one operating point")
    p.add_argument("--ntx", type=int, default=None)
    p.add_argument("--snr-db", dest="snr_db", type=float, default=None)
    _add_common(p)
    _add_method(p)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("optimize", help="ascend the power allocation on the simplex")
    p.add_argument("--ntx", type=int, default=None)
    p.add_argument("--snr-db", dest="snr_db", type=float, default=None)
    p.add_argument("--iters", type=int, default=None, help="iteration cap")
    _add_common(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("verify", help="run the stochastic-ordering verification suite")
    p.add_argument("--skip-optimizer", action="store_true")
    _add_common(p, sigmas=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep-snr", help="capacity across an SNR grid (dB), CSV out")
    p.add_argument("--ntx", type=int, default=None)
    p.add_argument("--snr-grid", dest="snr_grid", default=None,
                   help="comma-separated dB values, strictly increasing")
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    _add_common(p)
    _add_method(p)
    p.set_defaults(func=_cmd_sweep, kind=SweepKind.SNR)

    p = sub.add_parser("sweep-nt", help="capacity across antenna counts, CSV out")
    p.add_argument("--nt-grid", dest="nt_grid", default=None,
                   help="comma-separated antenna counts, strictly increasing")
    p.add_argument("--snr-db", dest="snr_db", type=float, default=None,
                   help="fixed total power in dB")
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    _add_common(p)
    _add_method(p)
    p.set_defaults(func=_cmd_sweep, kind=SweepKind.ANTENNAS)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        _merge_config(ns)
        return ns.func(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime/numeric failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end.

Subcommands: capacity, optimize, verify, sweep-snr, sweep-nt. Every flag but
--config and --skip-optimizer can also be supplied through a plain key=value
config file (--config). The command line wins over the file, and the file over
the flag's default. SNR is total power in dB: P = 10^(dB/10).

Exit codes: 0 success, 1 runtime or numeric failure (including violated
verification margins), 2 invalid arguments or violated preconditions.
"""
from __future__ import annotations

import argparse
import sys
from typing import Sequence

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
    "quad": lambda n_samples, seed: EvalMethod.quadrature(seed),
}

# Each flag's argparse keywords. Its default applies when neither the command
# line nor the config file sets it; the parser itself leaves every flag None.
_FLAGS: dict[str, dict[str, object]] = {
    "ntx": dict(type=int),
    "snr_db": dict(type=float, help="fixed total power in dB"),
    "snr_grid": dict(type=str, help="comma-separated dB values, strictly increasing"),
    "nt_grid": dict(type=str, help="comma-separated antenna counts, strictly increasing"),
    "iters": dict(type=int, default=OptimizerConfig.max_iters, help="iteration cap"),
    "out": dict(type=str, help="CSV path (stdout when omitted)"),
    "skip_optimizer": dict(action="store_true", default=False),
    "config": dict(type=str, help="key=value file setting any flag but --config and "
                   "--skip-optimizer; the command line wins over the file"),
    "seed": dict(type=int, default=0),
    "sigma_h": dict(type=float),
    "sigma_g": dict(type=float),
    "method": dict(type=str, default="coupled", choices=sorted(_METHODS)),
    "samples": dict(type=int, default=DEFAULT_MC_SAMPLES,
                    help=f"MC samples per expectation (default {DEFAULT_MC_SAMPLES})"),
}
# a file cannot name another file, and a switch has no value to set
_FILE_KEYS = frozenset(_FLAGS) - {"config", "skip_optimizer"}


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
        if key not in _FILE_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _FLAGS[key]["type"](value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _resolve(ns: argparse.Namespace) -> None:
    """Fill each flag of the command left unset from the config file, or else
    from its default: the command line wins over the file, the file over the default."""
    config = {} if ns.config is None else _load_config(ns.config)
    for key in _FLAGS.keys() & vars(ns).keys():
        if getattr(ns, key) is None:
            setattr(ns, key, config.get(key, _FLAGS[key].get("default")))


def _require(ns: argparse.Namespace, *keys: str) -> None:
    missing = [k for k in keys if getattr(ns, k, None) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ValueError(f"missing required arguments: {flags}")


def _model(ns: argparse.Namespace) -> ChannelModel:
    _require(ns, "ntx", "sigma_h", "sigma_g")
    return ChannelModel(n_t=ns.ntx, sigma_h=ns.sigma_h, sigma_g=ns.sigma_g)


def _method(ns: argparse.Namespace) -> EvalMethod:
    if ns.method not in _METHODS:
        raise ValueError(f"unknown method {ns.method!r}; choose from direct, coupled, quad")
    return _METHODS[ns.method](n_samples=ns.samples, seed=ns.seed)


def _parse_grid(text: str, kind: str) -> tuple[float, ...]:
    """The comma-separated numbers of text; SweepSpec decides which grids are valid."""
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ValueError(f"bad {kind} grid {text!r}: {exc}") from exc


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
    result = run_verify_suite(ns.seed, run_optimizer=not ns.skip_optimizer)
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
        model = ChannelModel(n_t=1, sigma_h=ns.sigma_h, sigma_g=ns.sigma_g)
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


# name: handler, help, flags in the order its usage line lists them, sweep kind
_COMMANDS = {
    "capacity": (_cmd_capacity, "secrecy capacity at one operating point",
                 "ntx snr_db config seed sigma_h sigma_g method samples", None),
    "optimize": (_cmd_optimize, "ascend the power allocation on the simplex",
                 "ntx snr_db iters config seed sigma_h sigma_g", None),
    "verify": (_cmd_verify, "run the stochastic-ordering verification suite",
               "skip_optimizer config seed", None),
    "sweep-snr": (_cmd_sweep, "capacity across an SNR grid (dB), CSV out",
                  "ntx snr_grid out config seed sigma_h sigma_g method samples", SweepKind.SNR),
    "sweep-nt": (_cmd_sweep, "capacity across antenna counts, CSV out",
                 "nt_grid snr_db out config seed sigma_h sigma_g method samples",
                 SweepKind.ANTENNAS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misosec",
        description="Ergodic secrecy capacity of Rayleigh MISO wiretap channels "
        "with statistical-only transmitter CSI",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, flags, kind) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for key in flags.split():
            p.add_argument("--" + key.replace("_", "-"), **{**_FLAGS[key], "default": None})
        p.set_defaults(func=handler, kind=kind)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a bad argument
        return exc.code
    try:
        _resolve(ns)
        return ns.func(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime/numeric failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

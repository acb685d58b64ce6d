"""Per-layer figures of a traced run.

Two sources feed them. The workload's traced passes give the figures of the
layers it exercises (from spans, replays and counters); a layer the workload
does not reach reads 0. A fixed set of small probes, the same on every
workload, times single public functions whose cost no workload call exposes:
a warm and a cold quadrature call, a simplex projection, the ordering
primitives, and the CLI's own overhead. One pass of the quad_grid workload is
among them, so that every traced run reports the quadrature route's error
against the reference (rates.quad_max_err_bits, rates.quad_failed_frac).
"""
from __future__ import annotations

import contextlib
import io
import statistics
import time

import numpy as np

import misosec
from misosec import cli
from misosec.channel import ChannelModel
from misosec.rates import EvalMethod, secrecy_capacity

from .reference import reference_table
from .tracing import Tracer
from .workloads import PassResult, QuadGrid, Workload, derive_seed

_PROBE_TAG = 101
_REF_MODEL = ChannelModel(n_t=4, sigma_h=1.0, sigma_g=0.5)
_CLI_ARGV = ["capacity", "--ntx", "4", "--sigma-h", "1", "--sigma-g", "0.5", "--snr-db", "10", "--method", "quad"]


def _per_call(fn, calls: int = 50, batches: int = 21) -> float:
    """Median seconds per call over batches of back-to-back calls."""
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


class Probes:
    """Layer probes; owns the supply of antenna counts no call has used yet."""

    def __init__(self) -> None:
        # the quadrature rule is cached per n_t; 129 and up are outside every grid
        self._fresh_nt = 129

    def run(self, seed: int) -> dict[str, float]:
        rng = np.random.default_rng(derive_seed(seed, _PROBE_TAG))
        quad = EvalMethod.quadrature()
        out = {}

        out["rates.quad_warm_us"] = _per_call(lambda: secrecy_capacity(_REF_MODEL, 10.0, quad)) * 1e6
        cold = []
        for _ in range(3):
            model = ChannelModel(n_t=self._fresh_nt, sigma_h=1.0, sigma_g=0.5)
            self._fresh_nt += 1
            t0 = time.perf_counter()
            secrecy_capacity(model, 10.0, quad)
            cold.append(time.perf_counter() - t0)
        out["rates.quad_cold_ms"] = statistics.median(cold) * 1e3
        grid = QuadGrid(seed)
        grid.refs = reference_table(grid.reference_points())
        out["rates.quad_max_err_bits"] = grid.run_pass(0, None).stats["quad_max_err_bits"]
        out["rates.quad_failed_frac"] = grid.tally.failed / grid.tally.attempted

        P = 10.0
        off_simplex = rng.normal(size=8) * P
        out["optimize.project_us"] = _per_call(lambda: misosec.project_to_simplex(off_simplex, P)) * 1e6

        out["ordering.lemma_s"] = _per_call(
            lambda: misosec.verify_lemma_LT_implies_expectation(
                (4.0, 0.0), (2.0, 2.0), sigma=1.0, a=0.25, n_samples=200_000, seed=derive_seed(seed, _PROBE_TAG)
            ),
            calls=1,
            batches=5,
        )
        d_star, d = misosec.random_majorization_pair(8, 4.0, rng)
        s = float(10.0 ** rng.uniform(-3.0, 3.0))
        x = float(10.0 ** rng.uniform(-3.0, 3.0))
        out["ordering.lt_gap_us"] = _per_call(lambda: misosec.lt_order_gap(d_star, d, 1.0, s)) * 1e6
        out["ordering.mgf_us"] = _per_call(lambda: misosec.mgf_quadratic_form(d, 1.0, s)) * 1e6
        out["ordering.cm_derivative_us"] = _per_call(lambda: misosec.cm_derivative(0.25, x, 5)) * 1e6

        def run_cli() -> None:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(_CLI_ARGV)

        cli_s = _per_call(run_cli, calls=5)
        api_s = _per_call(lambda: secrecy_capacity(_REF_MODEL, 10.0, quad), calls=5)
        out["cli.capacity_overhead_ms"] = (cli_s - api_s) * 1e3
        return out


def layer_metrics(
    workload: Workload,
    untraced: list[PassResult],
    traced: list[PassResult],
    tr: Tracer,
    probes: dict[str, float],
) -> dict[str, float]:
    """Every per-layer figure, per traced pass where it is a time or a count."""
    n = len(traced)
    passes = untraced + traced
    c = tr.counts
    rows = c.get("channel.rows", 0.0)
    iter_s = tr.total("channel.iter_abs2") / n
    mc_calls = {"rates.capacity_coupled_mc", "rates.capacity_direct_mc"}
    tally = workload.tally
    out = {
        "channel.iter_abs2_s": iter_s,
        "channel.rows_per_s": rows / n / iter_s if iter_s > 0 else 0.0,
        "channel.chunks": c.get("channel.chunks", 0.0) / n,
        "channel.bytes_out_mb": c.get("channel.bytes_out", 0.0) / n / 1e6,
        "kernels.flops_per_sample": c.get("kernels.flops", 0.0) / rows if rows else 0.0,
        "kernels.bytes_per_sample": c.get("kernels.bytes", 0.0) / rows if rows else 0.0,
        "rates.coupled_call_s": tr.total("rates.capacity_coupled_mc") / n,
        "rates.direct_call_s": tr.total("rates.capacity_direct_mc") / n,
        "rates.self_s": tr.self_time(mc_calls) / n,
        "rates.replay_match_frac": (
            sum(workload.replays) / len(workload.replays) if workload.replays else 0.0
        ),
        "rates.se_ratio": 0.0,
        "optimize.iters": 0.0,
        "optimize.converged_frac": 0.0,
        "optimize.grad_passes": 0.0,
        "optimize.grad_pass_s": 0.0,
        "optimize.self_s": 0.0,
        "verify.probes_s": 0.0,
        "verify.optimizer_s": 0.0,
        "sweeps.pool_speedup": 0.0,
        "sweeps.csv_write_ms": 0.0,
        "sweeps.csv_bytes": 0.0,
        "trace.overhead_s": (
            statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in untraced)
        ),
        "checks.failed_frac": tally.failed / tally.attempted if tally.attempted else 0.0,
    }
    for name in ("quad_form", "coupled_integrand", "log_rate", "grad_weights"):
        out[f"kernels.{name}_s"] = tr.total(f"kernels.{name}") / n
    out.update(probes)
    out.update(workload.layer_facts(passes))
    return out

"""The four benchmark workloads.

Each workload is a closed loop with one caller: a pass makes a fixed list of
calls into the package's public API, each after the previous one returns.
The only extra threads are the sweep pool's. Every input derives from the
workload seed. Checks against the references run after each pass, outside
its timed region, and a pass keeps only a few summary figures, so memory does
not grow with the number of passes.

Checks come in two strengths. A check fails when the output misses its
tolerance; it is a gate failure when the run cannot count as correct. The two
differ for the quadrature route, whose known bias at high SNR and small
n_t (an open defect) fails the strict 1e-6-bit check on 45 of the 312 grid
points: those failures are counted in failed_frac and quad_max_err_bits, and
only an error above QUAD_GROSS_BITS marks the run incorrect. The
stochastic ascent (an open defect too) misses its 1% tolerance from some
random starts: at n_t=8 seed 3796490668 ends 0.133 from uniform against
0.1, and the verify suite's own n_t=4 ascent ends 0.052 from uniform
against 0.04 at suite seed 2655919675, so the suite exits 1 although every
margin holds. Both are counted in failed_frac; only a landing more than
OPT_GROSS_SHARE of the budget from uniform, or a failed verify margin, marks
the run incorrect.
"""
from __future__ import annotations

import math
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import misosec
from misosec import sweeps
from misosec.channel import ChannelModel, PowerAllocation
from misosec.rates import EvalMethod, MethodTag, secrecy_capacity

from .tracing import Span, Tracer, replay_capacity, replay_grad_pass

MC_SIGMAS = 5.0
GRAD_REPLAYS = 5
QUAD_TOL_BITS = 1e-6
QUAD_GROSS_BITS = 1e-2
OPT_TOL_SHARE = 0.01
OPT_GROSS_SHARE = 0.1
_FAILED_EXAMPLES = 5


def snr_to_power(snr_db: float) -> float:
    """Total power P = 10^(dB/10), the same expression the package uses."""
    return 10.0 ** (snr_db / 10.0)


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed that depends only on the workload seed and the keys."""
    return int(np.random.SeedSequence((seed % 2**63, *keys)).generate_state(1)[0])


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    gate_ok: bool


def check(name: str, ok: bool) -> Check:
    return Check(name, bool(ok), bool(ok))


def mc_check(name: str, mean: float, std_error: float, ref: float) -> Check:
    return check(name, math.isfinite(mean) and abs(mean - ref) <= MC_SIGMAS * std_error)


@dataclass
class Tally:
    """Running count of checks over a run."""

    attempted: int = 0
    failed: int = 0
    gate_failed: int = 0
    examples: list[str] = field(default_factory=list)

    def add(self, checks: list[Check]) -> None:
        for c in checks:
            self.attempted += 1
            if not c.ok:
                self.failed += 1
                if len(self.examples) < _FAILED_EXAMPLES:
                    self.examples.append(("(gate) " if not c.gate_ok else "") + c.name)
            if not c.gate_ok:
                self.gate_failed += 1


@dataclass
class PassData:
    """What one pass leaves for its checks; dropped once they have run."""

    calls: list[dict] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    rows: int = 0
    ops: int = 0
    failed_ops: int = 0


@dataclass
class PassResult:
    wall_s: float
    ops: int
    failed_ops: int
    # the workload's figures (summarized as medians) and, under dotted
    # names, layer facts (summarized as means)
    stats: dict[str, float]


class Workload:
    """Base: subclasses define warm_up, reference_points, _run and _finish."""

    name = ""
    FIGURES: dict[str, str] = {}
    # wall_s over a run's passes: passes that cost alike are summarized by
    # their median, which ignores a pass the shared host happened to slow
    summarize_passes = staticmethod(statistics.median)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.refs: dict = {}
        self.replays: list[bool] = []
        self.tally = Tally()

    def warm_up(self) -> None:
        raise NotImplementedError

    def reference_points(self) -> list[tuple[int, float, float, float]]:
        raise NotImplementedError

    def run_pass(self, index: int, tr: Tracer | None) -> PassResult:
        data = PassData()
        start = time.perf_counter()
        self._run(index, tr, data)
        wall_s = time.perf_counter() - start
        checks, stats = self._finish(data, wall_s)
        self.tally.add(checks)
        return PassResult(wall_s, data.ops, data.failed_ops, stats)

    def _run(self, index: int, tr: Tracer | None, data: PassData) -> None:
        raise NotImplementedError

    def _finish(self, data: PassData, wall_s: float) -> tuple[list[Check], dict[str, float]]:
        raise NotImplementedError

    def _op(self, data: PassData, fn, *args):
        """One public call; an exception is a failed operation, not a crash."""
        data.ops += 1
        try:
            return fn(*args)
        except Exception:  # the loop must go on so the failure is counted
            traceback.print_exc()
            data.failed_ops += 1
            return None

    def _timed(self, data: PassData, tr: Tracer | None, span: str, fn, *args):
        """A public call timed, and spanned when traced: (result, seconds, span)."""
        if tr is None:
            t0 = time.perf_counter()
            out = self._op(data, fn, *args)
            return out, time.perf_counter() - t0, None
        with tr.span(span) as call:
            out = self._op(data, fn, *args)
        return out, call.duration, call

    def _capacity(self, data: PassData, tr: Tracer | None, model, P, method):
        """secrecy_capacity timed, and for MC routes replayed when traced."""
        route = method.tag.value
        est, dt, call = self._timed(data, tr, f"rates.capacity_{route}", secrecy_capacity, model, P, method)
        if method.tag is not MethodTag.QUADRATURE:
            data.rows += (2 if method.tag is MethodTag.DIRECT_MC else 1) * method.n_samples
            if call is not None and est is not None:
                self.replays.append(replay_capacity(tr, call, model, P, method, est.mean))
        data.calls.append({"route": route, "s": dt, "est": est, "key": _ref_key(model, P)})
        return est

    def figures(self, passes: list[PassResult]) -> list[tuple[str, float, str]]:
        """The workload's own end-to-end figures: medians over passes."""
        return [
            (name, statistics.median(p.stats[name] for p in passes), unit)
            for name, unit in self.FIGURES.items()
        ]

    def layer_facts(self, passes: list[PassResult]) -> dict[str, float]:
        """Per-layer values: means over the passes that report them."""
        values: dict[str, list[float]] = {}
        for p in passes:
            for k, v in p.stats.items():
                if "." in k:
                    values.setdefault(k, []).append(v)
        return {k: statistics.fmean(v) for k, v in values.items()}

    def close(self) -> None:
        pass


def _ref_key(model: ChannelModel, P: float) -> tuple[int, float, float, float]:
    return (model.n_t, P, model.sigma_h, model.sigma_g)


def _mc_checks(refs: dict, calls: list[dict]) -> tuple[list[Check], float]:
    """Each estimate within MC_SIGMAS std errors, coupled below direct std error;
    also returns the median direct/coupled std-error ratio over points."""
    checks = []
    se: dict = {}
    for c in calls:
        if c["est"] is None:
            continue
        est = c["est"]
        checks.append(mc_check(f"{c['route']} {c['key']}", est.mean, est.std_error, refs[c["key"]]))
        se.setdefault(c["key"], {})[c["route"]] = est.std_error
    ratios = []
    for key, v in se.items():
        if "coupled_mc" in v and "direct_mc" in v:
            checks.append(check(f"coupling {key}", v["coupled_mc"] < v["direct_mc"]))
            if v["coupled_mc"] > 0:
                ratios.append(v["direct_mc"] / v["coupled_mc"])
    return checks, statistics.median(ratios) if ratios else 0.0


class McCapacity(Workload):
    name = "mc_capacity"
    FIGURES = {"mc_samples_per_s": "1/s", "tta_ms": "ms"}

    NT = (1, 4, 64)
    SNR_DB = (0.0, 10.0, 30.0)
    RATIOS = (0.5, 0.9)
    # 2^19 channel entries per stream and call, so no point dominates the pass
    ENTRIES = 1 << 19

    def _points(self):
        return [(n_t, db, r) for n_t in self.NT for db in self.SNR_DB for r in self.RATIOS]

    def reference_points(self):
        return [(n_t, snr_to_power(db), 1.0, r) for n_t, db, r in self._points()]

    def warm_up(self) -> None:
        model = ChannelModel(n_t=4, sigma_h=1.0, sigma_g=0.5)
        secrecy_capacity(model, 10.0, EvalMethod.coupled_mc(4096, 0))
        secrecy_capacity(model, 10.0, EvalMethod.direct_mc(4096, 0))

    def _run(self, index, tr, data):
        pass_seed = derive_seed(self.seed, index)
        for i, (n_t, db, ratio) in enumerate(self._points()):
            model = ChannelModel(n_t=n_t, sigma_h=1.0, sigma_g=ratio)
            n = self.ENTRIES // n_t
            seed = derive_seed(pass_seed, i)
            for method in (EvalMethod.coupled_mc(n, seed), EvalMethod.direct_mc(n, seed)):
                self._capacity(data, tr, model, snr_to_power(db), method)

    def _finish(self, data, wall_s):
        checks, se_ratio = _mc_checks(self.refs, data.calls)
        # time to reach +-1e-3 bits at the call's own cost per sample
        tta = [
            c["s"] * (c["est"].std_error / 1e-3) ** 2 * 1e3
            for c in data.calls
            if c["route"] == "coupled_mc" and c["est"] is not None
        ]
        stats = {
            "mc_samples_per_s": data.rows / wall_s,
            "tta_ms": statistics.median(tta) if tta else math.inf,
            "rates.se_ratio": se_ratio,
        }
        return checks, stats


class SweepGrid(Workload):
    name = "sweep_grid"
    FIGURES = {"mc_samples_per_s": "1/s", "sweep_rows_per_s": "1/s"}

    SNR_GRID = tuple(float(db) for db in range(0, 41, 5))
    NT_GRID = tuple(float(n) for n in range(1, 17))
    SNR_SAMPLES = 200_000
    NT_SAMPLES = 65_536
    RATIO = 0.5
    NT_SNR_DB = 10.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._tmp = tempfile.TemporaryDirectory(prefix="sweep-", dir=scratch_dir())
        self._first_csv: dict[str, bytes] = {}
        self._specs = self._make_specs(Path(self._tmp.name))

    def _make_specs(self, tmp: Path) -> dict[str, sweeps.SweepSpec]:
        # every pass uses the workload seed, so each CSV must repeat the first byte for byte
        model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=self.RATIO)
        snr = dict(sweep_kind=sweeps.SweepKind.SNR, model=model, grid=self.SNR_GRID)
        return {
            "snr_coupled": sweeps.SweepSpec(
                **snr,
                method=EvalMethod.coupled_mc(self.SNR_SAMPLES, self.seed),
                output_path=str(tmp / "snr_coupled.csv"),
            ),
            "snr_direct": sweeps.SweepSpec(
                **snr,
                method=EvalMethod.direct_mc(self.SNR_SAMPLES, self.seed),
                output_path=str(tmp / "snr_direct.csv"),
            ),
            "nt_coupled": sweeps.SweepSpec(
                sweep_kind=sweeps.SweepKind.ANTENNAS,
                model=ChannelModel(n_t=16, sigma_h=1.0, sigma_g=self.RATIO),
                grid=self.NT_GRID,
                method=EvalMethod.coupled_mc(self.NT_SAMPLES, self.seed),
                power=snr_to_power(self.NT_SNR_DB),
                output_path=str(tmp / "nt_coupled.csv"),
            ),
        }

    @staticmethod
    def _point(spec: sweeps.SweepSpec, i: int) -> tuple[ChannelModel, float, EvalMethod]:
        """The model, power and method the sweep uses for grid point i."""
        method = replace(spec.method, seed=sweeps.point_seed(spec.method.seed, i))
        if spec.sweep_kind is sweeps.SweepKind.SNR:
            return spec.model, snr_to_power(spec.grid[i]), method
        model = ChannelModel(n_t=int(spec.grid[i]), sigma_h=spec.model.sigma_h, sigma_g=spec.model.sigma_g)
        return model, float(spec.power), method

    def reference_points(self):
        return [
            _ref_key(*self._point(spec, i)[:2])
            for spec in self._specs.values()
            for i in range(len(spec.grid))
        ]

    def warm_up(self) -> None:
        sweeps.run_sweep_snr(
            sweeps.SweepSpec(
                sweep_kind=sweeps.SweepKind.SNR,
                model=ChannelModel(n_t=2, sigma_h=1.0, sigma_g=self.RATIO),
                grid=(0.0, 10.0),
                method=EvalMethod.coupled_mc(4096, 0),
            )
        )

    def _run(self, index, tr, data):
        for label, spec in self._specs.items():
            fn = sweeps.run_sweep_snr if spec.sweep_kind is sweeps.SweepKind.SNR else sweeps.run_sweep_antennas
            rows, dt, _ = self._timed(data, tr, f"sweeps.{fn.__name__}", fn, spec)
            data.info[label] = (rows, dt)
            streams = 2 if spec.method.tag is MethodTag.DIRECT_MC else 1
            data.rows += streams * spec.method.n_samples * len(spec.grid)
        if tr is not None:
            self._replay(tr, data)

    def _replay(self, tr: Tracer, data: PassData) -> None:
        """Every point again, serially through secrecy_capacity, then every CSV write again."""
        serial = PassData()
        write_s = 0.0
        for label, spec in self._specs.items():
            rows = data.info[label][0]
            for i in range(len(spec.grid)):
                est = self._capacity(serial, tr, *self._point(spec, i))
                if rows is not None and est is not None:
                    self.replays.append(est.mean == rows[i].capacity_bits)
            if rows is not None:
                with tr.span("sweeps.write_csv") as write:
                    sweeps.write_csv(spec.output_path, rows)
                write_s += write.duration
        data.info.update(serial=serial, csv_write_s=write_s)

    def _finish(self, data, wall_s):
        checks = []
        std_errors: dict = {}
        csv_bytes = 0
        for label, spec in self._specs.items():
            rows = data.info[label][0]
            if rows is None:
                continue
            for i, row in enumerate(rows):
                key = _ref_key(*self._point(spec, i)[:2])
                checks.append(mc_check(f"{label}[{i}]", row.capacity_bits, row.std_error_bits, self.refs[key]))
                std_errors.setdefault((spec.sweep_kind, i), {})[spec.method.tag.value] = row.std_error_bits
            written = Path(spec.output_path).read_bytes()
            csv_bytes += len(written)
            if label in self._first_csv:
                checks.append(check(f"{label} csv reproducible", written == self._first_csv[label]))
            else:
                self._first_csv[label] = written
        for key, v in std_errors.items():
            if "coupled_mc" in v and "direct_mc" in v:
                checks.append(check(f"coupling {key}", v["coupled_mc"] < v["direct_mc"]))
        n_rows = sum(len(spec.grid) for spec in self._specs.values())
        stats = {
            "mc_samples_per_s": data.rows / wall_s,
            "sweep_rows_per_s": n_rows / wall_s,
            "sweeps.csv_bytes": float(csv_bytes),
        }
        if "serial" in data.info:
            serial_calls = data.info["serial"].calls
            pool_s = sum(data.info[label][1] for label in self._specs)
            stats["sweeps.pool_speedup"] = sum(c["s"] for c in serial_calls) / pool_s
            stats["sweeps.csv_write_ms"] = data.info["csv_write_s"] * 1e3
            stats["rates.se_ratio"] = _mc_checks(self.refs, serial_calls)[1]
        return checks, stats

    def close(self) -> None:
        self._tmp.cleanup()


class OptimizeVerify(Workload):
    name = "optimize_verify"
    FIGURES = {"optimize_s": "s", "verify_s": "s"}
    # a pass's cost follows its two ascents' seed-driven iteration counts (90
    # to the cap of 250), and a run holds only four or five passes: their mean
    # estimates the expected cost with less spread over seeds than a median
    summarize_passes = staticmethod(statistics.fmean)

    MODEL = ChannelModel(n_t=8, sigma_h=1.0, sigma_g=0.7)
    SNR_DB = 10.0

    def reference_points(self):
        return []

    def warm_up(self) -> None:
        P = snr_to_power(self.SNR_DB)
        misosec.grad_estimate(self.MODEL, PowerAllocation.uniform(8, P), 4096, 0)
        misosec.project_to_simplex(np.ones(8), P)

    def _run(self, index, tr, data):
        seed = derive_seed(self.seed, index)
        config = misosec.OptimizerConfig(seed=seed)
        P = snr_to_power(self.SNR_DB)
        verify, verify_s, vcall = self._timed(data, tr, "verify.run_verify_suite", misosec.run_verify_suite, seed)
        trace, optimize_s, ocall = self._timed(
            data, tr, "optimize.optimize_allocation", misosec.optimize_allocation, self.MODEL, P, config
        )
        data.info.update(verify=verify, trace=trace, verify_s=verify_s, optimize_s=optimize_s)
        if tr is not None:
            self._replay(tr, vcall, ocall, seed, trace, config, data)

    def _replay(self, tr, vcall: Span, ocall: Span, seed: int, trace, config, data) -> None:
        """The suite without its optimizer, and gradient passes standing for the optimizer's."""
        with tr.span("verify.probes", parent=vcall) as probes:
            misosec.run_verify_suite(seed, run_optimizer=False)
        data.info["probes_s"] = probes.duration
        if trace is not None:
            weight = len(trace.objective_values) / GRAD_REPLAYS
            grad_s = [
                replay_grad_pass(
                    tr, ocall, self.MODEL, trace.final, config.grad_samples, derive_seed(seed, 1, k), weight
                )
                for k in range(GRAD_REPLAYS)
            ]
            data.info["grad_pass_s"] = statistics.fmean(grad_s)

    def _finish(self, data, wall_s):
        verify, trace = data.info["verify"], data.info["trace"]
        # exit code 0 also needs the suite's stochastic ascent to land within
        # its 1% tolerance, which it misses from some starts; the gate is that
        # every margin holds and the ascent landed within OPT_GROSS_SHARE
        checks = []
        if verify is not None:
            holds = all(rep.holds for _, rep in verify.checks)
            landed = verify.optimizer_deviation <= OPT_GROSS_SHARE / OPT_TOL_SHARE * verify.optimizer_tol
            checks.append(Check("verify exit code 0", verify.exit_code == 0, holds and landed))
        else:
            checks.append(check("verify exit code 0", False))
        stats = {"optimize_s": data.info["optimize_s"], "verify_s": data.info["verify_s"]}
        if trace is not None:
            P = snr_to_power(self.SNR_DB)
            deviation = float(np.max(np.abs(trace.final.as_array() - P / self.MODEL.n_t)))
            checks.append(
                Check(
                    "optimizer converges to uniform",
                    trace.converged and deviation <= OPT_TOL_SHARE * P,
                    deviation <= OPT_GROSS_SHARE * P,
                )
            )
            stats["optimize.iters"] = float(len(trace.iterates) - 1)
            stats["optimize.grad_passes"] = float(len(trace.objective_values))
            stats["optimize.converged_frac"] = float(trace.converged)
        else:
            checks.append(check("optimizer converges to uniform", False))
        if "probes_s" in data.info:
            stats["verify.probes_s"] = data.info["probes_s"]
            stats["verify.optimizer_s"] = data.info["verify_s"] - data.info["probes_s"]
        if "grad_pass_s" in data.info:
            grad_s = data.info["grad_pass_s"]
            stats["optimize.grad_pass_s"] = grad_s
            stats["optimize.self_s"] = data.info["optimize_s"] - len(trace.objective_values) * grad_s
        return checks, stats


class QuadGrid(Workload):
    name = "quad_grid"
    FIGURES = {
        "quad_points_per_s": "1/s",
        "quad_call_p50_us": "us",
        "quad_call_p90_us": "us",
        "quad_max_err_bits": "bits",
    }

    NT = tuple(2**k for k in range(8))
    SNR_DB = tuple(float(db) for db in range(0, 61, 5))
    RATIOS = (0.1, 0.5, 0.9)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        points = [(n_t, db, r) for n_t in self.NT for db in self.SNR_DB for r in self.RATIOS]
        # the seed only sets the visiting order: the route draws no random numbers
        order = np.random.default_rng(derive_seed(seed, 0)).permutation(len(points))
        self._points = [points[i] for i in order]
        self._models = {(n_t, r): ChannelModel(n_t=n_t, sigma_h=1.0, sigma_g=r) for n_t, _, r in points}

    def reference_points(self):
        return [(n_t, snr_to_power(db), 1.0, r) for n_t, db, r in self._points]

    def warm_up(self) -> None:
        # fills the per-n_t quadrature rule caches, so passes time warm calls
        for n_t in self.NT:
            secrecy_capacity(self._models[(n_t, 0.5)], 1.0, EvalMethod.quadrature())

    def _run(self, index, tr, data):
        method = EvalMethod.quadrature()
        for n_t, db, r in self._points:
            self._capacity(data, tr, self._models[(n_t, r)], snr_to_power(db), method)

    def _finish(self, data, wall_s):
        checks = []
        worst = 0.0
        for c in data.calls:
            err = abs(c["est"].mean - self.refs[c["key"]]) if c["est"] is not None else math.inf
            worst = max(worst, err)
            checks.append(Check(f"quad {c['key']}", err <= QUAD_TOL_BITS, err <= QUAD_GROSS_BITS))
        # 312 calls a pass leave 31 beyond the 90th percentile
        deciles = statistics.quantiles([c["s"] * 1e6 for c in data.calls], n=10)
        stats = {
            "quad_points_per_s": len(data.calls) / wall_s,
            "quad_call_p50_us": deciles[4],
            "quad_call_p90_us": deciles[8],
            "quad_max_err_bits": worst,
            "rates.quad_max_err_bits": worst,
        }
        return checks, stats


WORKLOADS = {cls.name: cls for cls in (McCapacity, SweepGrid, OptimizeVerify, QuadGrid)}

_SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench"


def scratch_dir() -> str:
    """Directory inside the checkout for temporary files and traces."""
    _SCRATCH.mkdir(exist_ok=True)
    return str(_SCRATCH)

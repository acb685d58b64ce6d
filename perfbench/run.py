"""misosec benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload mc_capacity --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads: mc_capacity, sweep_grid, optimize_verify, quad_grid (see
workloads.py for what each runs and why). BENCHMARK.json lists the first
three: quad_grid's ~10 ms passes are pure interpreter work whose median
moved by up to 40% between runs on a shared 2-core host, beyond any bound a
gated workload may have. Its accuracy check still runs in every traced run
(see layers.py) and it still runs by name. One run sets the workload up,
computes its references, then repeats passes of the workload until --seconds
have gone by, checking every pass against the references.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: setup_s
(median of five set-ups: this process's import and warm-up, and four more in
fresh interpreters), wall_s (seconds per pass over at least three passes:
the median, or the mean on optimize_verify, see workloads.py) and
peak_rss_mb. The workload's own figures (throughputs, per-call times, error
against the reference, failed_frac) are printed above the result line.

--trace 1 spends half of --seconds on untraced passes and half on traced
ones, then runs the layer probes, and reports the per-layer metrics; the
spans go to .perfbench/trace-<workload>-seed<seed>.json.

The last line of stdout is one JSON object: correct (every gating check
passed and no call raised), attempted (public calls made), failed (calls
that raised) and metrics. Host facts are printed first.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("mc_capacity", "sweep_grid", "optimize_verify", "quad_grid")
SETUP_SAMPLES = 5
# a median of three passes outlasts one slow pass
MIN_PASSES = 3
# enough for stable layer figures; more would only grow the span file
MAX_TRACED_PASSES = 20
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads() -> int:
    """Cap BLAS threads at the usable cores before numpy loads.

    Two sweep-pool threads each running a multi-threaded BLAS call would
    oversubscribe the cores; an unset variable lets OpenBLAS size its pool
    from the host's core count, which a container may not own.
    """
    cores = len(os.sched_getaffinity(0))
    threads = cores
    for var in _BLAS_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            threads = min(threads, int(value))
    for var in _BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _host_facts(args, blas_threads: int) -> dict:
    import misosec
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": importlib.metadata.version("mpmath"),
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_backend": misosec.active_backend(),
        "blas_threads": blas_threads,
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _setup(name: str, seed: int):
    """Import the package and warm the workload up; returns it with the elapsed time."""
    t0 = time.perf_counter()
    import misosec

    if not Path(misosec.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"misosec imported from {misosec.__file__}, not from {SRC}")
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.warm_up()
    return workload, time.perf_counter() - t0


def _setup_in_fresh_interpreter(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _measure(workload, seconds: float, first_index: int, tr=None, min_passes=MIN_PASSES, max_passes=None):
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or (
        time.perf_counter() - start < seconds and len(passes) != max_passes
    ):
        passes.append(workload.run_pass(first_index + len(passes), tr))
    return passes


def _print_metrics(workload: str, rows) -> None:
    for name, value, unit in rows:
        print(f"  {workload:<16} {name:<28} {value:>14.6g} {unit}")


def _run_workload(name: str, args, manifest: dict, blas_threads: int | None, probes) -> dict:
    """One workload; prints host facts first when blas_threads is given."""
    workload, setup_s = _setup(name, args.seed)
    if blas_threads is not None:
        print("host " + json.dumps(_host_facts(args, blas_threads)))
    from perfbench import layers
    from perfbench.reference import reference_table
    from perfbench.tracing import Tracer
    from perfbench.workloads import scratch_dir

    try:
        workload.refs = reference_table(workload.reference_points())
        if args.trace:
            untraced = _measure(workload, args.seconds / 2, 0)
            tr = Tracer(workload=name)
            traced = _measure(
                workload, args.seconds / 2, len(untraced), tr, min_passes=1, max_passes=MAX_TRACED_PASSES
            )
            values = layers.layer_metrics(workload, untraced, traced, tr, probes.run(args.seed))
            passes = untraced + traced
            wanted = manifest["per_layer"]
            trace_path = Path(scratch_dir()) / f"trace-{name}-seed{args.seed}.json"
            tr.write(trace_path, {"workload": name, "seed": args.seed, "replay_match": workload.replays})
            print(f"spans: {len(tr.spans)} written to {trace_path.relative_to(ROOT)}")
            for layer, secs in sorted(tr.layer_self_times().items()):
                print(f"  {name:<16} self time {layer:<19} {secs / len(traced):>14.6g} s per traced pass")
        else:
            samples = [setup_s] + [
                _setup_in_fresh_interpreter(name, args.seed) for _ in range(SETUP_SAMPLES - 1)
            ]
            passes = _measure(workload, args.seconds, 0)
            values = {
                "setup_s": statistics.median(samples),
                "wall_s": workload.summarize_passes([p.wall_s for p in passes]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            wanted = manifest["end_to_end"]
            print(f"  {name:<16} setup samples (s): {', '.join(f'{s:.4f}' for s in samples)}")
            _print_metrics(name, workload.figures(passes))
    finally:
        workload.close()

    tally = workload.tally
    for example in tally.examples:
        print(f"  {name:<16} FAILED {example}")
    print(
        f"  {name:<16} passes {len(passes)}; checks {tally.attempted}, failed {tally.failed} "
        f"(gate {tally.gate_failed}), failed_frac {tally.failed / max(tally.attempted, 1):.6g}"
    )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    _print_metrics(name, [(k, v["value"], v["unit"]) for k, v in metrics.items()])
    return {
        "correct": tally.gate_failed == 0 and not any(p.failed_ops for p in passes),
        "attempted": sum(p.ops for p in passes),
        "failed": sum(p.failed_ops for p in passes),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="misosec benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (SRC / "misosec" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/misosec; run from a source checkout", file=sys.stderr)
        return 2
    blas_threads = _cap_blas_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]

    if args.setup_probe:
        print(json.dumps({"setup_s": _setup(args.workload, args.seed)[1]}))
        return 0

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    probes = None
    for i, name in enumerate(names):
        if args.trace and probes is None:
            from perfbench.layers import Probes

            probes = Probes()
        results[name] = _run_workload(name, args, manifest, blas_threads if i == 0 else None, probes)
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
                }
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

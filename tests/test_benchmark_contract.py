"""The names the benchmark under perfbench/ reads from the package.

The benchmark replays each Monte Carlo call stage by stage through
channel.iter_abs2 and the four _kernels functions and requires the replayed
mean to equal the call's bit for bit. The replay draws per entry, so it
matches only where the routes do: below rates._GAMMA_MIN_NT antennas (the
n_t=1 and 4 points of mc_capacity; its n_t=64 calls draw Gamma row sums). It also records active_backend() and
times gradient passes of OptimizerConfig.grad_samples draws. These tests
fail when a rename, a removed name (public, or read off a module, such as
sweeps.point_seed or a _kernels function) or a change of reduction order
would break it.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import misosec
from misosec import ChannelModel, EvalMethod, PowerAllocation, secrecy_capacity


@pytest.fixture(scope="module")
def tracing():
    root = str(Path(__file__).resolve().parent.parent)
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(root)
        import perfbench.layers  # noqa: F401  (the benchmark's entry imports)
        import perfbench.tracing
        import perfbench.workloads  # noqa: F401

        yield perfbench.tracing


@pytest.mark.parametrize("n_t", [1, 4])
@pytest.mark.parametrize(
    "method",
    [EvalMethod.coupled_mc(40_000, 5), EvalMethod.direct_mc(40_000, 5)],
    ids=["coupled", "direct"],
)
def test_replay_capacity_matches_the_call(tracing, n_t, method):
    model = ChannelModel(n_t=n_t, sigma_h=1.0, sigma_g=0.5)
    tr = tracing.Tracer("contract")
    with tr.span("rates.capacity") as call:
        est = secrecy_capacity(model, 10.0, method)
    assert tracing.replay_capacity(tr, call, model, 10.0, method, est.mean) is True


def test_grad_replay_and_host_facts_resolve(tracing):
    model = ChannelModel(n_t=4, sigma_h=1.0, sigma_g=0.5)
    tr = tracing.Tracer("contract")
    with tr.span("optimize.optimize_allocation") as call:
        pass
    alloc = PowerAllocation.uniform(4, 4.0)
    seconds = tracing.replay_grad_pass(tr, call, model, alloc, 2000, 1, 1.0)
    assert seconds > 0
    assert tr.total("kernels.grad_weights") > 0
    assert misosec.active_backend() == "numpy"
    assert isinstance(misosec.OptimizerConfig.grad_samples, int)


def _package_reads() -> set[tuple[str, str]]:
    """(module, name) for each name perfbench/ imports from a misosec module,
    and for each attribute it reads off misosec or a misosec submodule."""
    reads = set()
    for path in (Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> the misosec module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(
                    (alias.asname or alias.name, alias.name)
                    for alias in node.names
                    if alias.name == "misosec"
                )
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("misosec"):
                for alias in node.names:
                    submodule = f"misosec.{alias.name}"
                    if node.module == "misosec" and importlib.util.find_spec(submodule):
                        modules[alias.asname or alias.name] = submodule
                    else:
                        reads.add((node.module, alias.name))
        reads.update(
            (modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        )
    return reads


def test_every_package_name_the_benchmark_reads_resolves(tracing):
    # perfbench/run.py reads some names only inside functions, past any import
    reads = _package_reads()
    # the scan sees run.py's reads and the module-qualified reads of the workloads
    assert {("misosec", "active_backend"), ("misosec.sweeps", "point_seed"),
            ("misosec.channel", "iter_abs2")} <= reads
    # the replay looks its kernels up by name, from its cost table
    reads |= {("misosec._kernels", name) for name in tracing._KERNEL_COST}
    missing = sorted(
        f"{module}.{name}" for module, name in reads
        if not hasattr(importlib.import_module(module), name)
    )
    assert not missing, f"perfbench reads {missing}, which the package lacks"

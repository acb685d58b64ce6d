"""The names the benchmark under perfbench/ reads from the package.

The benchmark replays each Monte Carlo call stage by stage through
channel.iter_abs2 and the four _kernels functions and requires the replayed
mean to equal the call's bit for bit. The replay draws per entry, so it
matches only where the routes do: below rates._GAMMA_MIN_NT antennas (the
n_t=1 and 4 points of mc_capacity; its n_t=64 calls draw Gamma row sums). It also records active_backend() and
times gradient passes of OptimizerConfig.grad_samples draws. These tests
fail when a rename, a removed public name or a change of reduction order
would break it.
"""
import re
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


def test_every_package_name_the_benchmark_reads_resolves():
    # perfbench/run.py reads some names only inside functions, past any import
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    names = {
        name
        for path in perfbench.glob("*.py")
        for name in re.findall(r"\bmisosec\.(\w+)", path.read_text())
    }
    assert "active_backend" in names  # the scan sees run.py's reads
    missing = sorted(name for name in names if not hasattr(misosec, name))
    assert not missing, f"perfbench reads misosec.{missing}, which the package lacks"

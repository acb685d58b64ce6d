"""Ergodic secrecy capacity of fast-Rayleigh-fading MISO wiretap channels
under statistical-only transmitter channel knowledge.

The toolkit computes the capacity by three mutually validating routes
(direct Monte Carlo, a variance-reduced coupled estimator, and Hamdi's MGF
integral on a fixed trapezoid rule, for any allocation, with an error
estimate and the exact gradient), maximizes the secrecy rate over the power
simplex by deterministic projected gradient ascent on that integral, and
numerically verifies the stochastic-ordering chain behind the optimality of
the uniform allocation: majorization, Laplace-transform order, complete
monotonicity and Schur concavity, down to the secrecy rate itself.

The top level exports what the CLI, the README and the benchmark use; the
chunk stream (CHUNK, iter_abs2), the route tags (MethodTag) and the CSV
writers stay in channel, rates and sweeps. Importing the package loads
channel, rates and sweeps, which are all that a capacity or a sweep runs.
The exports of optimize, ordering and verify (_LAZY) load with their module
on first use, as do those modules themselves: without a bytecode cache every
process compiles what it imports from source.
"""
import importlib

from .channel import (
    ChannelModel,
    PowerAllocation,
    RateEstimate,
)
from .rates import (
    EvalMethod,
    asymptote_high_snr,
    asymptote_large_nt,
    ergodic_log_rate_mc,
    ergodic_log_rate_quadrature,
    secrecy_capacity,
    secrecy_rate_coupled_mc,
    secrecy_rate_direct_mc,
)
from .sweeps import (
    SweepKind,
    SweepSpec,
    run_sweep_antennas,
    run_sweep_snr,
)

# export: the submodule it loads from on first use (see __getattr__)
_LAZY = {
    **dict.fromkeys(
        ("OptimizerConfig", "OptimizerTrace", "grad_estimate", "optimize_allocation",
         "project_to_simplex"),
        "optimize",
    ),
    **dict.fromkeys(
        ("OrderCheckReport", "Witness", "cm_derivative", "lt_order_gap", "majorizes",
         "mgf_quadratic_form", "random_majorization_pair",
         "verify_lemma_LT_implies_expectation"),
        "ordering",
    ),
    "run_verify_suite": "verify",
}

__version__ = "0.1.0"


def active_backend() -> str:
    """Name of the kernel backend; vectorized numpy is the only one.

    Kept for the benchmark, which records it among its host facts.
    """
    return "numpy"


def __getattr__(name: str):
    """Load an export of optimize, ordering or verify, or the module itself,
    on first use and keep it in the package's namespace (PEP 562)."""
    if name in _LAZY.values():
        return importlib.import_module(f".{name}", __name__)  # the import binds it here
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = [
    "ChannelModel",
    "EvalMethod",
    "OptimizerConfig",
    "OptimizerTrace",
    "OrderCheckReport",
    "PowerAllocation",
    "RateEstimate",
    "SweepKind",
    "SweepSpec",
    "Witness",
    "active_backend",
    "asymptote_high_snr",
    "asymptote_large_nt",
    "cm_derivative",
    "ergodic_log_rate_mc",
    "ergodic_log_rate_quadrature",
    "grad_estimate",
    "lt_order_gap",
    "majorizes",
    "mgf_quadratic_form",
    "optimize_allocation",
    "project_to_simplex",
    "random_majorization_pair",
    "run_sweep_antennas",
    "run_sweep_snr",
    "run_verify_suite",
    "secrecy_capacity",
    "secrecy_rate_coupled_mc",
    "secrecy_rate_direct_mc",
    "verify_lemma_LT_implies_expectation",
    "__version__",
]

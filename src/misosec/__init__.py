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

Every Monte Carlo route draws the squared channel magnitudes |g_k|^2
directly as Exponential(sigma^2) in counter-seeded chunks, or, at an equal
allocation over 5 or more antennas, each row's sum ||g||^2 as one
sigma^2 Gamma(n_t) draw, and averages vectorized numpy kernels over them
with one streaming reducer; no route draws the complex entries, whose
reference sampler lives with the tests. The top level exports what the CLI,
the README and the benchmark use; the chunk stream (CHUNK, iter_abs2), the
route tags (MethodTag) and the CSV writers stay in channel, rates and sweeps.
"""
from .channel import (
    ChannelModel,
    PowerAllocation,
    RateEstimate,
)
from .optimize import (
    OptimizerConfig,
    OptimizerTrace,
    grad_estimate,
    optimize_allocation,
    project_to_simplex,
)
from .ordering import (
    OrderCheckReport,
    Witness,
    cm_derivative,
    lt_order_gap,
    majorizes,
    mgf_quadratic_form,
    random_majorization_pair,
    verify_lemma_LT_implies_expectation,
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
from .verify import run_verify_suite

__version__ = "0.1.0"


def active_backend() -> str:
    """Name of the kernel backend; vectorized numpy is the only one.

    Kept for the benchmark, which records it among its host facts.
    """
    return "numpy"


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

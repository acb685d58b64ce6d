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
directly as Exponential(sigma^2) in counter-seeded chunks and averages
vectorized numpy kernels over them with one streaming reducer.
"""
from .channel import (
    CHUNK,
    ChannelModel,
    ComplexGainMatrix,
    PowerAllocation,
    RateEstimate,
    Side,
    iter_abs2,
    quadratic_form,
    random_unitary,
    sample_channel,
)
from .optimize import (
    OptimizerConfig,
    OptimizerTrace,
    grad_estimate,
    optimize_allocation,
    project_to_simplex,
)
from .ordering import (
    MAX_DERIVATIVE_ORDER,
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
    DEFAULT_MC_SAMPLES,
    EvalMethod,
    MethodTag,
    asymptote_high_snr,
    asymptote_large_nt,
    ergodic_log_rate_mc,
    ergodic_log_rate_quadrature,
    secrecy_capacity,
    secrecy_rate_coupled_mc,
    secrecy_rate_direct_mc,
)
from .sweeps import (
    CSV_HEADER,
    SweepKind,
    SweepRow,
    SweepSpec,
    rows_to_csv,
    run_sweep_antennas,
    run_sweep_snr,
    write_csv,
)
from .verify import VerifySuiteResult, run_verify_suite

__version__ = "0.1.0"


def active_backend() -> str:
    """Name of the kernel backend; vectorized numpy is the only one.

    Kept for the benchmark, which records it among its host facts.
    """
    return "numpy"


__all__ = [
    "CHUNK",
    "CSV_HEADER",
    "DEFAULT_MC_SAMPLES",
    "MAX_DERIVATIVE_ORDER",
    "ChannelModel",
    "ComplexGainMatrix",
    "EvalMethod",
    "MethodTag",
    "OptimizerConfig",
    "OptimizerTrace",
    "OrderCheckReport",
    "PowerAllocation",
    "RateEstimate",
    "Side",
    "SweepKind",
    "SweepRow",
    "SweepSpec",
    "VerifySuiteResult",
    "Witness",
    "active_backend",
    "asymptote_high_snr",
    "asymptote_large_nt",
    "cm_derivative",
    "ergodic_log_rate_mc",
    "ergodic_log_rate_quadrature",
    "grad_estimate",
    "iter_abs2",
    "lt_order_gap",
    "majorizes",
    "mgf_quadratic_form",
    "optimize_allocation",
    "project_to_simplex",
    "quadratic_form",
    "random_majorization_pair",
    "random_unitary",
    "rows_to_csv",
    "run_sweep_antennas",
    "run_sweep_snr",
    "run_verify_suite",
    "sample_channel",
    "secrecy_capacity",
    "secrecy_rate_coupled_mc",
    "secrecy_rate_direct_mc",
    "verify_lemma_LT_implies_expectation",
    "write_csv",
    "__version__",
]

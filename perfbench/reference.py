"""Independent references for the uniform-allocation secrecy capacity.

The primary reference is Hamdi's MGF integral (K. A. Hamdi, IEEE Trans.
Commun. 58(2), 2010),

    R = (1/ln 2) * int_0^inf e^{-s}/s [M_g(s) - M_h(s)] ds,
    M_x(s) = E[exp(-s x^H D x)] = (1 + s P sigma_x^2 / n_t)^{-n_t},

evaluated with scipy.integrate.quad after the substitution s = e^u, which
turns the 1/s singularity into a smooth, doubly exponentially decaying
integrand. It shares no code with the package's three routes.

For n_t <= 2 it is cross-checked against the closed form
e^{1/mu} sum_{k=1}^{n_t} E_k(1/mu) evaluated in mpmath at raised precision;
at double precision that form overflows or cancels when mu is small.
"""
from __future__ import annotations

import math

import mpmath
from scipy import integrate

_LN2 = math.log(2.0)

# the two references must agree this closely wherever both are evaluated
CROSS_CHECK_BITS = 1e-9
_CLOSED_FORM_MAX_NT = 2
_CLOSED_FORM_DPS = 40


def hamdi_capacity(n_t: int, P: float, sigma_h: float, sigma_g: float) -> float:
    """Secrecy capacity in bits at the uniform allocation, by the MGF integral."""
    if sigma_h <= sigma_g or P == 0:
        return 0.0
    c_h = P * sigma_h * sigma_h / n_t
    c_g = P * sigma_g * sigma_g / n_t

    def integrand(u: float) -> float:
        s = math.exp(u)
        m_g = math.exp(-n_t * math.log1p(s * c_g))
        m_h = math.exp(-n_t * math.log1p(s * c_h))
        return math.exp(-s) * (m_g - m_h)

    # below u = -ln(c_h) - 40 the integrand is below e^-40 times its peak;
    # above u = 4 the factor exp(-e^u) is below e^-54
    breaks = sorted({-math.log(c_h), -math.log(c_g), 0.0})
    value, _ = integrate.quad(
        integrand,
        -math.log(c_h) - 40.0,
        4.0,
        points=breaks,
        limit=500,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    return value / _LN2


def closed_form_capacity(n_t: int, P: float, sigma_h: float, sigma_g: float) -> float:
    """Same quantity from e^{1/mu} sum_k E_k(1/mu) in mpmath (use for small n_t)."""
    if sigma_h <= sigma_g or P == 0:
        return 0.0
    with mpmath.workdps(_CLOSED_FORM_DPS):

        def log_rate(mu: float) -> mpmath.mpf:
            x = 1 / mpmath.mpf(mu)
            return mpmath.exp(x) * sum(mpmath.expint(k, x) for k in range(1, n_t + 1))

        diff = log_rate(P * sigma_h**2 / n_t) - log_rate(P * sigma_g**2 / n_t)
        return float(diff / mpmath.log(2))


def reference_table(
    points: list[tuple[int, float, float, float]],
) -> dict[tuple[int, float, float, float], float]:
    """Reference capacity for each (n_t, P, sigma_h, sigma_g) point.

    Raises RuntimeError when the two references disagree, because then
    neither can be trusted to judge the package.
    """
    table = {}
    for point in dict.fromkeys(points):
        ref = hamdi_capacity(*point)
        if point[0] <= _CLOSED_FORM_MAX_NT:
            other = closed_form_capacity(*point)
            if abs(ref - other) > CROSS_CHECK_BITS:
                raise RuntimeError(
                    f"reference cross-check failed at {point}: "
                    f"integral {ref!r} vs closed form {other!r}"
                )
        table[point] = ref
    return table

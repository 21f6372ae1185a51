"""Real special functions used by the lattice kernels and closed forms.

Everything here is real-valued double precision.  The Hurwitz zeta (with its
s- and q-derivatives) and the upper incomplete gamma are implemented locally
because the kernels need them outside the domains covered by scipy: analytic
continuation of zeta(s; q) to s < 1 and Gamma(sigma, x) for sigma <= 0.
Routine functions (erfc, digamma, E1, ...) delegate to math/scipy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as sc

from .errors import DivergentIntegral, InvalidParameter, PoleAtOne

__all__ = [
    "gamma_upper",
    "gamma_upper_reg_vec",
    "gamma_upper_vec",
    "gamma_upper_dsigma_vec",
    "hurwitz_zeta",
    "hurwitz_zeta_ds",
    "hurwitz_zeta_dq",
    "riemann_zeta",
    "riemann_zeta_ds",
    "digamma",
    "trigamma",
    "erfc",
    "exp_integral_e1",
    "euler_gamma",
    "stieltjes_gamma1",
]


# Euler-Maclaurin setup for the Hurwitz zeta: 16 shifted direct terms,
# Bernoulli corrections through B12.  The first omitted correction (B14) is
# below 1e-13 relative over s in [-2, 60], q in (0, 2].
_EM_SHIFT = 16
_BERNOULLI_OVER_FACT = [
    (2, 1.0 / 6.0 / math.factorial(2)),
    (4, -1.0 / 30.0 / math.factorial(4)),
    (6, 1.0 / 42.0 / math.factorial(6)),
    (8, -1.0 / 30.0 / math.factorial(8)),
    (10, 5.0 / 66.0 / math.factorial(10)),
    (12, -691.0 / 2730.0 / math.factorial(12)),
]


# ---------------------------------------------------------------------------
# upper incomplete gamma
# ---------------------------------------------------------------------------

# step of the 4th-order d/dsigma Gamma(sigma, x) stencil
_DSIGMA_STEP = 1e-3


def gamma_upper_reg_vec(sigma, x):
    """Regularized Q(sigma, x) = Gamma(sigma, x) / Gamma(sigma) for scalar
    sigma > 0 and x >= 0, an array or a scalar.

    Q(1/2, x) = erfc(sqrt x) is taken in its scaled form
    exp(-x) erfcx(sqrt x): it costs a quarter of scipy's gammaincc and stays
    within 1e-15 relative of the exact value up to x = 700, where gammaincc
    and a plain erfc(sqrt x) drift to ~1e-13.  It covers the Riesz direct
    terms at s = 1 and the dual coefficients at (d - s)/2 = 1/2.
    """
    if sigma == 0.5:
        return np.exp(-x) * sc.erfcx(np.sqrt(x))
    return sc.gammaincc(sigma, x)


def _checked(sigma, x):
    """x as a float or a float array, once every element lies in the domain
    of Gamma(sigma, .); NaN passes through."""
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
    lo = np.min(x, initial=np.inf)
    if lo < 0.0:
        raise InvalidParameter(f"Gamma(sigma, x) needs x >= 0, got x = {lo}")
    if lo == 0.0 and sigma <= 0.0:
        raise DivergentIntegral(f"Gamma({sigma}, 0) diverges for sigma <= 0")
    return x


def _gamma_upper(sigma, x):
    """Gamma(sigma, x) on a checked x: the regularized gamma for sigma > 0;
    otherwise downward recurrence Gamma(sigma-1, x) = (Gamma(sigma, x) -
    x^(sigma-1) e^-x) / (sigma-1) from the fractional part of sigma, or from
    E1 at integer sigma."""
    if sigma > 0.0:
        return gamma_upper_reg_vec(sigma, x) * math.gamma(sigma)
    if abs(sigma - round(sigma)) < 1e-12:
        sig, g = 0.0, sc.exp1(x)
    else:
        sig = sigma - math.floor(sigma)
        g = gamma_upper_reg_vec(sig, x) * math.gamma(sig)
    steps = int(round(sig - sigma))
    if steps:
        emx = np.exp(-x)
        for _ in range(steps):
            sig = sig - 1.0
            # np.power rounds a float as it rounds an array element
            g = (g - np.power(x, sig) * emx) / sig
    return g


def gamma_upper_vec(sigma, x):
    """Upper incomplete gamma Gamma(sigma, x) = int_x^inf t^(sigma-1) e^-t dt
    for scalar sigma and x >= 0, an array or a float.

    Every order the kernels, the planner and specfun-eval use goes through
    here.  x < 0 raises InvalidParameter; x = 0 gives Gamma(sigma) for
    sigma > 0 and raises DivergentIntegral for sigma <= 0.

    Accuracy, measured against mpmath at 30 digits over sigma in [-3, 30]
    and x in (0, 50]: within 3.6e-14 relative for sigma > 0 (scipy's
    gammaincc).  For sigma <= 0 a recurrence step to order o cancels where
    x > |o| and divides by o, so it multiplies the relative error by about
    max(1, x/|o|); the error stays within 1.2e-14 times the product of
    these factors.  That is 3e-12 at most for x <= 5 and ~1e-9 near x = 50
    (sigma = -2.19, x = 50: 1.0e-9), but grows without bound as sigma
    approaches an integer from below, where the first step divides by
    sigma - ceil(sigma): Gamma(-1e-9, 30) is 3.8e-5 off.
    """
    return _gamma_upper(sigma, _checked(sigma, x))


def gamma_upper_dsigma_vec(sigma, x):
    """d/dsigma Gamma(sigma, x) by a fourth-order central difference of
    step _DSIGMA_STEP.

    The wide step with a 4th-order stencil keeps the rounding-noise floor
    near 1e-12 * Gamma(sigma, x) while the truncation error stays below
    ~1e-9 relative; a narrow 2-point difference would leave an erratic
    1/step-amplified ripple that finite differences of downstream
    quantities cannot tolerate.
    """
    h = _DSIGMA_STEP
    x = _checked(sigma - 2.0 * h, x)
    g = _gamma_upper
    # one order at a time, so at most two arrays of x's size are alive
    return (-g(sigma + 2.0 * h, x) + 8.0 * g(sigma + h, x)
            - 8.0 * g(sigma - h, x) + g(sigma - 2.0 * h, x)) / (12.0 * h)


gamma_upper = gamma_upper_vec  # the name specfun-eval --fn gamma_upper calls


# ---------------------------------------------------------------------------
# Hurwitz zeta and derivatives
# ---------------------------------------------------------------------------


def _check_zeta_args(s, q):
    if abs(s - 1.0) < 1e-12:
        raise PoleAtOne("zeta(s; q) has a pole at s = 1")
    if q <= 0.0:
        raise InvalidParameter(f"q must be positive, got {q}")


def hurwitz_zeta(s, q):
    """Hurwitz zeta(s; q), analytically continued to all real s != 1.

    Euler-Maclaurin: 16 direct terms, integral tail, Bernoulli corrections
    through B12.  Relative error <= ~1e-13 for s in [-2, 60], q in (0, 2].
    """
    _check_zeta_args(s, q)
    a = q + _EM_SHIFT
    total = 0.0
    for k in range(_EM_SHIFT):
        total += (q + k) ** (-s)
    total += a ** (1.0 - s) / (s - 1.0)
    total += 0.5 * a ** (-s)
    poch = s
    apow = a ** (-s - 1.0)
    for idx, (two_j, coeff) in enumerate(_BERNOULLI_OVER_FACT):
        total += coeff * poch * apow
        if idx + 1 < len(_BERNOULLI_OVER_FACT):
            poch *= (s + two_j - 1.0) * (s + two_j)
            apow /= a * a
    return total


def hurwitz_zeta_ds(s, q):
    """d/ds zeta(s; q), by term-wise differentiation of the same expansion."""
    _check_zeta_args(s, q)
    a = q + _EM_SHIFT
    la = math.log(a)
    total = 0.0
    for k in range(_EM_SHIFT):
        total -= math.log(q + k) * (q + k) ** (-s)
    t = a ** (1.0 - s) / (s - 1.0)
    total += -la * t - t / (s - 1.0)
    total += -0.5 * la * a ** (-s)
    # rising product (s)(s+1)...(s+2j-2) and its s-derivative, built factor
    # by factor so zeros of individual factors are harmless
    poch = s
    dpoch = 1.0
    next_factor = 1
    apow = a ** (-s - 1.0)
    for idx, (two_j, coeff) in enumerate(_BERNOULLI_OVER_FACT):
        total += coeff * apow * (dpoch - poch * la)
        if idx + 1 < len(_BERNOULLI_OVER_FACT):
            for _ in range(2):
                f = s + next_factor
                dpoch = dpoch * f + poch
                poch = poch * f
                next_factor += 1
            apow /= a * a
    return total


def hurwitz_zeta_dq(s, q):
    """d/dq zeta(s; q) = -s zeta(s+1; q)."""
    if q <= 0.0:
        raise InvalidParameter(f"q must be positive, got {q}")
    if abs(s) < 1e-12:
        # limit of -s * (1/s + O(1)) as s -> 0
        return -1.0
    return -s * hurwitz_zeta(s + 1.0, q)


def riemann_zeta(s):
    """Riemann zeta(s) for real s != 1, including 0 < s < 1 and s < 0."""
    return hurwitz_zeta(s, 1.0)


def riemann_zeta_ds(s):
    """zeta'(s) for real s != 1."""
    return hurwitz_zeta_ds(s, 1.0)


# ---------------------------------------------------------------------------
# routine functions
# ---------------------------------------------------------------------------

EULER_GAMMA = float(np.euler_gamma)


def digamma(x):
    if x <= 0.0:
        raise InvalidParameter(f"digamma implemented for x > 0 only, got {x}")
    return float(sc.digamma(x))


def trigamma(x):
    if x <= 0.0:
        raise InvalidParameter(f"trigamma implemented for x > 0 only, got {x}")
    return float(sc.polygamma(1, x))


def erfc(x):
    return math.erfc(x)


def exp_integral_e1(x):
    if x <= 0.0:
        raise InvalidParameter(f"E1 implemented for x > 0 only, got {x}")
    return float(sc.exp1(x))


def euler_gamma():
    return EULER_GAMMA


@lru_cache(maxsize=1)
def stieltjes_gamma1():
    """First generalized Euler constant, from its defining limit
    lim_m (sum_{k<=m} log(k)/k - log(m)^2/2), accelerated with
    Euler-Maclaurin corrections at m = 10^4.

    Computed once at first use and cached.
    """
    m = 10**4
    k = np.arange(1, m + 1, dtype=float)
    partial = float(np.sum(np.log(k) / k)) - 0.5 * math.log(m) ** 2
    # subtract f(m)/2 + sum B_2j/(2j)! f^(2j-1)(m), with f(t) = log(t)/t and
    # f^(n)(t) = (-1)^n n! (log t - H_n) / t^(n+1)
    lm = math.log(m)
    corr = -0.5 * lm / m
    for two_j, coeff in _BERNOULLI_OVER_FACT[:3]:
        n = two_j - 1
        harmonic = sum(1.0 / i for i in range(1, n + 1))
        deriv = -math.factorial(n) * (lm - harmonic) / m ** (n + 1)
        corr -= coeff * deriv
    return partial + corr

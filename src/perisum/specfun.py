"""Real special functions used by the lattice kernels and closed forms.

Everything here is real-valued double precision.  The Hurwitz zeta (with its
s- and q-derivatives) and the upper incomplete gamma are implemented locally
because the kernels need them outside the domains covered by scipy: analytic
continuation of zeta(s; q) to s < 1 and Gamma(sigma, x) for sigma <= 0.
Routine functions (erfc, digamma, E1, ...) delegate to math/scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sc

from .errors import DivergentIntegral, PoleAtOne, PrecisionLossWarning

__all__ = [
    "PrecisionPolicy",
    "DEFAULT_POLICY",
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


@dataclass(frozen=True)
class PrecisionPolicy:
    """Accuracy request for the locally implemented series and fractions."""

    target_rel_err: float = 1e-13
    max_terms: int = 400

    def __post_init__(self):
        if not (0.0 < self.target_rel_err <= 1e-3):
            raise ValueError(
                f"target_rel_err must lie in (0, 1e-3], got {self.target_rel_err}"
            )
        if self.max_terms < 10:
            raise ValueError("max_terms too small to be useful")


DEFAULT_POLICY = PrecisionPolicy()

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


def _gamma_upper_cf(sigma, x, policy):
    """Continued fraction for Gamma(sigma, x), reliable for x > sigma + 1."""
    tiny = 1e-300
    b = x + 1.0 - sigma
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, policy.max_terms + 1):
        an = -i * (i - sigma)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < policy.target_rel_err:
            break
    else:
        warnings.warn("incomplete gamma continued fraction did not converge",
                      PrecisionLossWarning)
    return math.exp(-x + sigma * math.log(x)) * h


def _gamma_lower_series(sigma, x, policy):
    """Series for the lower incomplete gamma(sigma, x), for x <= sigma + 1."""
    ap = sigma
    term = 1.0 / sigma
    total = term
    for _ in range(policy.max_terms):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * policy.target_rel_err:
            break
    else:
        warnings.warn("incomplete gamma series did not converge",
                      PrecisionLossWarning)
    return total * math.exp(-x + sigma * math.log(x))


def _gamma_upper_zero(x, policy):
    """Gamma(0, x) = E1(x) without delegating to scipy, so the identity
    E1(x) == gamma_upper(0, x) stays a two-route check."""
    if x > 1.0:
        return _gamma_upper_cf(0.0, x, policy)
    total = 0.0
    term = 1.0
    for k in range(1, policy.max_terms):
        term *= -x / k
        total -= term / k
        if abs(term) < policy.target_rel_err * max(1.0, abs(total)):
            break
    return -EULER_GAMMA - math.log(x) + total


def gamma_upper(sigma, x, policy=None):
    """Upper incomplete gamma Gamma(sigma, x) = int_x^inf t^(sigma-1) e^-t dt.

    Continued-fraction branch for x > sigma + 1, series branch otherwise;
    sigma <= 0 (with x > 0) is reached by stepping down with
    Gamma(sigma, x) = (Gamma(sigma+1, x) - x^sigma e^-x) / sigma.
    """
    policy = policy or DEFAULT_POLICY
    if x < 0.0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        if sigma <= 0.0:
            raise DivergentIntegral("Gamma(sigma, 0) diverges for sigma <= 0")
        return math.gamma(sigma)
    if sigma <= 0.0:
        n = int(math.ceil(-sigma))
        base = sigma + n + 1.0  # in (1, 2]
        if abs(sigma - round(sigma)) < 1e-12:
            # integer sigma <= 0: the recurrence passes through sigma = 0
            g = _gamma_upper_zero(x, policy)
            steps = int(round(-sigma))
            sig = 0.0
        else:
            g = _gamma_upper_principal(base, x, policy)
            steps = n + 1
            sig = base
        emx = math.exp(-x)
        for _ in range(steps):
            sig -= 1.0
            g = (g - x**sig * emx) / sig
        return g
    return _gamma_upper_principal(sigma, x, policy)


def _gamma_upper_principal(sigma, x, policy):
    if x > sigma + 1.0:
        return _gamma_upper_cf(sigma, x, policy)
    return math.gamma(sigma) - _gamma_lower_series(sigma, x, policy)


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


def _downward_start(sigma):
    """Where gamma_upper_vec starts for order sigma: (base, Gamma(base),
    steps), so that `steps` downward steps from Gamma(base, x) reach sigma;
    Gamma(base) is None for integer sigma <= 0, which starts from E1."""
    if sigma > 0.0:
        return sigma, math.gamma(sigma), 0
    if abs(sigma - round(sigma)) < 1e-12:
        return 0.0, None, int(round(-sigma))
    frac = sigma - math.floor(sigma)
    return frac, math.gamma(frac), int(round(frac - sigma))


def _gamma_upper_from(base, gbase, steps, x):
    """Gamma(base - steps, x) by downward recurrence from Gamma(base, x)."""
    g = sc.exp1(x) if gbase is None else gamma_upper_reg_vec(base, x) * gbase
    if steps:
        emx = np.exp(-x)
        sig = base
        for _ in range(steps):
            sig = sig - 1.0
            # np.power rounds a float as it rounds an array element
            g = (g - np.power(x, sig) * emx) / sig
    return g


def gamma_upper_vec(sigma, x):
    """Vectorized Gamma(sigma, x) for scalar sigma and x > 0, an array or a
    float (the planner's rounding floor passes one).

    Hot path for the Ewald sums: the regularized gamma above for
    sigma > 0, downward recurrence (through E1 at integer sigma) otherwise.
    The recurrence loses relative accuracy where the value underflows the
    leading x^sigma e^-x scale, but the absolute error stays below
    machine epsilon times that scale, which is what the kernel sums need.
    """
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
    return _gamma_upper_from(*_downward_start(sigma), x)


@lru_cache(maxsize=64)
def _stencil_starts(sigma, step):
    """Downward starts of the stencil orders sigma + 2 step, sigma + step,
    sigma - step and sigma - 2 step."""
    return tuple(_downward_start(o) for o in (sigma + 2.0 * step, sigma + step,
                                              sigma - step, sigma - 2.0 * step))


def gamma_upper_dsigma_vec(sigma, x, step=1e-3):
    """d/dsigma Gamma(sigma, x) by a fourth-order central difference.

    The wide step with a 4th-order stencil keeps the rounding-noise floor
    near 1e-12 * Gamma(sigma, x) while the truncation error stays below
    ~1e-9 relative; a narrow 2-point difference would leave an erratic
    1/step-amplified ripple that finite differences of downstream
    quantities cannot tolerate.  The four orders and their recurrence
    starts are worked out once per (sigma, step).
    """
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
    o2, o1, m1, m2 = _stencil_starts(sigma, step)
    g = _gamma_upper_from
    # one order at a time, so at most two arrays of x's size are alive
    return (-g(*o2, x) + 8.0 * g(*o1, x) - 8.0 * g(*m1, x)
            + g(*m2, x)) / (12.0 * step)


# ---------------------------------------------------------------------------
# Hurwitz zeta and derivatives
# ---------------------------------------------------------------------------


def _check_zeta_args(s, q):
    if abs(s - 1.0) < 1e-12:
        raise PoleAtOne("zeta(s; q) has a pole at s = 1")
    if q <= 0.0:
        raise ValueError("q must be positive")


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
        raise ValueError("q must be positive")
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
        raise ValueError("digamma implemented for x > 0 only")
    return float(sc.digamma(x))


def trigamma(x):
    if x <= 0.0:
        raise ValueError("trigamma implemented for x > 0 only")
    return float(sc.polygamma(1, x))


def erfc(x):
    return math.erfc(x)


def exp_integral_e1(x):
    if x <= 0.0:
        raise ValueError("E1 implemented for x > 0 only")
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

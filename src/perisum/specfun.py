"""Real special functions used by the lattice kernels and closed forms.

Everything here is real-valued double precision.  The Hurwitz zeta (with its
s- and q-derivatives) and the upper incomplete gamma are implemented locally
because the kernels need them outside the domains covered by scipy: analytic
continuation of zeta(s; q) to s < 1, Gamma(sigma, x) for sigma <= 0, and
d/dsigma Gamma(sigma, x), which the log-Riesz kernel needs.
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

# Below the series edge max(_SERIES_X, sigma), Gamma(sigma, x) and its
# sigma-derivative come from power series; above it from the Legendre
# continued fraction, evaluated backward at a fixed depth per band of x:
# (lower edge of the band, depth), the edges moved up by sigma - _SERIES_X
# where that is positive.  Each depth reaches the rounding floor at its
# band's lower edge for sigma in [-3.3, 20].
_SERIES_X = 1.5
_CF_DEPTHS = ((1.5, 64), (3.0, 36), (8.0, 18), (15.0, 14), (20.0, 10))
# while at most this many elements of a continued-fraction array have
# started, they step as floats: one array step (seven ufunc calls, about
# 3.4 us on a few elements) costs what the float steps of about 28
# elements do (0.12 us each; numpy 2.4, 2-vCPU VM), so eight stays well
# inside the crossover
_CF_FLOAT_ELEMENTS = 8
# a power series stops once its terms fall below this relative to the first
_SERIES_TOL = 1e-17
# Taylor terms of (u e^u - expm1 u) / u^2 used for |u| <= 1
_PHI_TERMS = 18


def gamma_upper_reg_vec(sigma, x):
    """Regularized Q(sigma, x) = Gamma(sigma, x) / Gamma(sigma) for scalar
    sigma > 0 and x >= 0, an array or a scalar.

    Q(1/2, x) = erfc(sqrt x) is taken in its scaled form
    exp(-x) erfcx(sqrt x): it costs a quarter of scipy's gammaincc and stays
    within 1e-15 relative of the exact value up to x = 700, where gammaincc
    and a plain erfc(sqrt x) drift to ~1e-13.  It covers the Riesz direct
    terms at s = 1 and the dual coefficients at (d - s)/2 = 1/2.

    For the other orders 0 < sigma < 1 and 0 < x < 1.5, where scipy's
    gammaincc costs ten to twenty times what it costs above, the value comes
    from the series of the (Gamma, d/dsigma Gamma) pair (_gamma_series,
    without the derivative); against mpmath at 40 digits it is within
    6e-15 relative there, gammaincc within 1.5e-14.  A scalar goes through
    the same formula as a one-element array.  Every other (sigma, x), x = 0
    (which gives 1) included, is scipy's gammaincc.
    """
    if sigma == 0.5:
        return np.exp(-x) * sc.erfcx(np.sqrt(x))
    if not 0.0 < sigma < 1.0:
        return sc.gammaincc(sigma, x)
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    small = flat < _SERIES_X
    small &= flat > 0.0
    inside = small.nonzero()[0]
    if not inside.size:
        return sc.gammaincc(sigma, x)
    out = np.empty_like(flat)
    outside = (~small).nonzero()[0]
    out[outside] = sc.gammaincc(sigma, flat[outside])
    out[inside] = _gamma_series(sigma, flat[inside], False)[0] / math.gamma(sigma)
    return out.reshape(x.shape)[()]


def _checked(sigma, x):
    """x as a float or a float array, once sigma is finite and every element
    lies in the domain of Gamma(sigma, .); NaN passes through."""
    if not math.isfinite(sigma):
        raise InvalidParameter(f"Gamma(sigma, x) needs a finite sigma, got {sigma}")
    if isinstance(x, float):
        lo = x
    else:
        x = np.asarray(x, dtype=float)
        lo = np.minimum.reduce(x, axis=None, initial=np.inf)
    if lo < 0.0:
        raise InvalidParameter(f"Gamma(sigma, x) needs x >= 0, got x = {lo}")
    if lo == 0.0 and sigma <= 0.0:
        raise DivergentIntegral(f"Gamma({sigma}, 0) diverges for sigma <= 0")
    return x


def _gamma_cf(sigma, x, runs):
    """(Gamma, d/dsigma Gamma) from the Legendre continued fraction
    Gamma(sigma, x) = e^-x x^sigma / f_0, with f_n = x + 2n + 1 - sigma -
    (n+1)(n+1-sigma) / f_(n+1), evaluated backward from f_D = x + 2D + 1 -
    sigma at a depth D with its sigma-derivative f_n' carried along:
    d/dsigma Gamma = Gamma (log x - f_0'/f_0).

    runs holds (count, depth) pairs, deepest first: the first count
    elements of x take the first depth, and so on (a float is one run).
    An array runs one loop from the first depth down, which a run joins at
    its own depth, each step in place on the prefix of x started so far;
    so every element takes exactly the steps of its own depth.  While at
    most _CF_FLOAT_ELEMENTS elements have started, they step as floats
    (_cf_float), which give the bits of the array steps at a fraction of
    the cost of a ufunc call on a few elements; so an array of at most
    that many elements never steps as an array."""
    # both parts of the pair underflow to 0 long before x = 1e4, so
    # clipping there changes no finite result and keeps x = inf finite
    if isinstance(x, float):
        x = min(float(x), 1e4)
        (_, depth), = runs
        f, df = _cf_float(sigma, x, depth, 0)
    else:
        x = np.minimum(x, 1e4)
        f = np.empty_like(x)
        df = np.full_like(x, -1.0)
        # the runs that step as floats, down to the depth where the next
        # run joins (0 if none is left)
        m = head = 0
        while head < len(runs) and m + runs[head][0] <= _CF_FLOAT_ELEMENTS:
            m += runs[head][0]
            head += 1
        stop = runs[head][1] if head < len(runs) else 0
        depths = [depth for count, depth in runs[:head] for _ in range(count)]
        for i, (xi, depth) in enumerate(zip(x[:m].tolist(), depths)):
            f[i], df[i] = _cf_float(sigma, xi, depth, stop)
        starts = {depth: count for count, depth in runs[head:]}
        c = np.empty_like(x)
        xm, fm, dfm, cm = x[:m], f[:m], df[:m], c[:m]
        steps = _cf_steps(sigma)
        for n in range(stop - 1, -1, -1):
            if n + 1 in starts:
                end = m + starts[n + 1]
                f[m:end] = x[m:end] + (2.0 * (n + 1) + 1.0 - sigma)
                m = end
                xm, fm, dfm, cm = x[:m], f[:m], df[:m], c[:m]
            a, b, e = steps[n]
            np.divide(a, fm, out=cm)
            dfm *= cm
            dfm += b
            dfm /= fm
            dfm -= 1.0
            np.add(xm, e, out=fm)
            fm -= cm
    logx = np.log(x)
    g = _xpow_exp(sigma, x, logx) / f
    return g, g * (logx - df / f)


def _cf_float(sigma, x, depth, stop):
    """(f_stop, f_stop') of _gamma_cf for one float x started at depth:
    the steps n = depth-1 ... stop of the array loop, each operation on
    the same operands, so the same bits."""
    f = x + (2.0 * depth + 1.0 - sigma)
    df = -1.0
    for a, b, e in reversed(_cf_steps(sigma)[stop:depth]):
        c = a / f
        df = (b + c * df) / f - 1.0
        f = (x + e) - c
    return f, df


@lru_cache(maxsize=32)
def _cf_steps(sigma):
    """The constants of the continued fraction's step n at the order
    sigma, for n below the deepest depth: ((n+1)(n+1-sigma), n+1,
    2n+1-sigma).  Built at first use per order."""
    return tuple(((n + 1.0) * (n + 1.0 - sigma), n + 1.0, 2.0 * n + 1.0 - sigma)
                 for n in range(_CF_DEPTHS[0][1]))


def _xpow_exp(sigma, x, logx):
    """x^sigma e^-x as e^-x e^(sigma log x).  Above sigma = 70, where
    x^sigma alone can pass the double range below x = 1e4 (log-Riesz
    exponents of a few hundred), an element whose product overflows takes
    e^(sigma log x - x) instead; every other element keeps the product."""
    if sigma <= 70.0:
        return np.exp(-x) * np.exp(sigma * logx)
    with np.errstate(over="ignore", invalid="ignore"):
        pre = np.exp(-x) * np.exp(sigma * logx)
    return np.where(np.isfinite(pre), pre, np.exp(sigma * logx - x))[()]


def _series_terms(x_max, base):
    """N such that x_max^N / ((base+1)...(base+N)), the bound on the N-th
    term of the series below relative to its first, is under _SERIES_TOL."""
    n, t = 0, 1.0
    while t > _SERIES_TOL:
        n += 1
        t *= x_max / (base + n)
    return n


@lru_cache(maxsize=1)
def _gamma1p_taylor():
    """Taylor coefficients g_0..g_64 of Gamma(1 + a) at a = 0, from the
    series log Gamma(1 + a) = -gamma a + sum_(k>=2) (-1)^k zeta(k) a^k / k.
    Computed once at first use and cached."""
    top = 64
    ell = [0.0, -float(np.euler_gamma)] + [
        (-1.0) ** k * float(sc.zeta(k)) / k for k in range(2, top + 1)]
    g = [1.0]
    for n in range(1, top + 1):
        g.append(sum(k * ell[k] * g[n - k] for k in range(1, n + 1)) / n)
    return tuple(g)


def _gamma1pm1_over(a):
    """(Gamma(1 + a) - 1)/a and its a-derivative for |a| <= 1/2."""
    g = _gamma1p_taylor()
    v = dv = 0.0
    for k in range(len(g) - 1, 0, -1):
        v = v * a + g[k]
        if k >= 2:
            dv = dv * a + (k - 1) * g[k]
    return v, dv


@lru_cache(maxsize=32)
def _series_table(sigma):
    """(order, ratios, value weights, d/dsigma weights, c, dc) of
    _gamma_series at the order sigma, built at first use: its terms t_n =
    t_(n-1) x ratios[n-1] from t_0 = 1, as many as the series edge
    max(_SERIES_X, sigma) needs, and the constants c, dc the sums are taken
    from."""
    if sigma >= 0.5:
        # t_n = x^n / ((sigma+1) ... (sigma+n)); the lower series' terms are
        # t_n / sigma, and their sigma-derivatives -t_n H_n / sigma with
        # H_n = sum_(k<=n) 1/(sigma+k)
        order = sigma
        n = np.arange(_series_terms(max(_SERIES_X, sigma), sigma) + 1.0)
        inv = 1.0 / (sigma + n)
        ratios = inv[1:]
        values = np.full(ratios.size, 1.0 / sigma)
        dsigma = np.cumsum(inv)[1:] / sigma
        c = math.gamma(sigma)
        dc = c * float(sc.digamma(sigma))
    else:
        # t_n = (-x)^n / n!, weighted by 1/(a+n) and 1/(a+n)^2
        order = sigma - math.floor(sigma + 0.5)
        n = np.arange(1.0, _series_terms(_SERIES_X, 0.0) + 1.0)
        ratios = -1.0 / n
        values = 1.0 / (order + n)
        dsigma = values * values
        c, dc = _gamma1pm1_over(order)
    for row in (ratios, values, dsigma):
        row.flags.writeable = False
    return order, ratios, values, dsigma, c, dc


def _gamma_series(sigma, x, want_d=True):
    """(Gamma, d/dsigma Gamma) on a 1-d array of x in (0, max(1.5, sigma)),
    (Gamma, None) without want_d.  For sigma >= 1/2, Gamma(sigma) minus the
    positive lower series

        gamma(sigma, x) = e^-x x^sigma sum_(n>=0) x^n / (sigma (sigma+1) ...
                          (sigma+n)),

    differentiated term by term.  Otherwise, at the order a = sigma -
    round(sigma) in [-1/2, 1/2), the central form

        Gamma(a, x) = (Gamma(1+a) - 1)/a - (x^a - 1)/a
                      - x^a sum_(n>=1) (-x)^n / (n! (a+n)),

    in which nothing is singular at a = 0 (there it is the series of E1);
    (x^a - 1)/a = expm1(u)/a, u = a log x, has the a-derivative log(x)^2
    phi(u), phi(u) = (u e^u - expm1 u)/u^2, taken from its Taylor series
    where |u| <= 1.  The downward recurrence Gamma(o, x) = (Gamma(o+1, x) -
    x^o e^-x)/o, differentiated in o, then steps from a to sigma; every step
    divides by |o| >= 1/2, so no order near an integer divides by a small
    number.

    Both series come from _series_table: each element's terms n >= 1 are
    one cumulative product of x ratios along its own row, and each row is
    summed on its own, never through BLAS, so an element's result does not
    depend on the rest of the array."""
    order, ratios, values, dsigma, c, dc = _series_table(sigma)
    terms = np.multiply.outer(x, ratios)
    np.cumprod(terms, axis=1, out=terms)
    d_sum = (terms * dsigma).sum(axis=1) if want_d else None
    terms *= values
    v_sum = terms.sum(axis=1)
    logx = np.log(x)
    if sigma >= 0.5:
        # the n = 0 terms, 1/sigma and 1/sigma^2
        v_sum += 1.0 / sigma
        pre = _xpow_exp(sigma, x, logx)
        g = c - pre * v_sum
        if not want_d:
            return g, None
        d_sum += 1.0 / (sigma * sigma)
        return g, dc - pre * (logx * v_sum - d_sum)
    u = order * logx
    xa = np.exp(u)
    g = c - (np.expm1(u) / order if order else logx) - xa * v_sum
    dg = None
    if want_d:
        near = np.abs(u) <= 1.0
        taylor = 0.0
        for k in range(_PHI_TERMS, -1, -1):
            taylor = taylor * u + (k + 1.0) / math.factorial(k + 2)
        far = np.where(near, 1.0, u)
        phi = np.where(near, taylor, (np.exp(far) * (far - 1.0) + 1.0) / (far * far))
        dg = dc - logx * logx * phi - xa * (logx * v_sum - d_sum)
    steps = int(round(order - sigma))
    if steps:
        emx = np.exp(-x)
        for _ in range(steps):
            order -= 1.0
            p = np.power(x, order) * emx
            g = (g - p) / order
            if want_d:
                dg = (dg - p * logx - g) / order
    return g, dg


def _gamma_pair(sigma, x):
    """(Gamma(sigma, x), d/dsigma Gamma(sigma, x)) on a checked x: a float
    goes to its band's formula.  An array is put in band order by one
    stable sort, so x = 0, the series and each continued-fraction band are
    consecutive slices; the continued-fraction slice goes to _gamma_cf as
    one run per band, and empty bands cost nothing."""
    # above sigma = 1.5 the bands move up with sigma: the depth the
    # continued fraction needs follows x - sigma there
    shift = max(sigma - _SERIES_X, 0.0)
    cf = [(lo + shift, depth) for lo, depth in _CF_DEPTHS]
    if isinstance(x, float):
        if x == 0.0:
            gs = math.gamma(sigma)
            return gs, gs * float(sc.digamma(sigma))
        if not x >= cf[0][0]:
            g, dg = _gamma_series(sigma, np.array([x]))
            return g[0], dg[0]
        return _gamma_cf(sigma, x, [(1, [d for lo, d in cf if x >= lo][-1])])
    flat = x.reshape(-1)
    # band 0: x = 0 (sigma > 0); band 1: the series; band 2 + i: cf[i]
    edges = np.array([math.ulp(0.0)] + [lo for lo, _ in cf])
    band = np.searchsorted(edges, flat, side="right")
    zeros, series, *counts = np.bincount(band, minlength=edges.size + 1).tolist()
    # as uint8 the stable sort is a radix sort
    order = np.argsort(band.astype(np.uint8), kind="stable")
    xs = flat[order]
    gs, dgs = np.empty_like(xs), np.empty_like(xs)
    if zeros:
        gs[:zeros], dgs[:zeros] = _gamma_pair(sigma, 0.0)
    top = zeros + series
    if series:
        gs[zeros:top], dgs[zeros:top] = _gamma_series(sigma, xs[zeros:top])
    runs = [(k, depth) for k, (_, depth) in zip(counts, cf) if k]
    if runs:
        gs[top:], dgs[top:] = _gamma_cf(sigma, xs[top:], runs)
    g, dg = np.empty_like(xs), np.empty_like(xs)
    g[order], dg[order] = gs, dgs
    return g.reshape(x.shape), dg.reshape(x.shape)


def gamma_upper_vec(sigma, x):
    """Upper incomplete gamma Gamma(sigma, x) = int_x^inf t^(sigma-1) e^-t dt
    for scalar sigma and x >= 0, an array or a float.

    Every order the kernels, the planner and specfun-eval use goes through
    here.  x < 0 raises InvalidParameter; x = 0 gives Gamma(sigma) for
    sigma > 0 and raises DivergentIntegral for sigma <= 0.

    Accuracy against mpmath at 30 digits over sigma in [-3, 30] and x in
    (0, 50]: sigma > 0 is gamma_upper_reg_vec times Gamma(sigma), within
    3.6e-14 relative (scipy's gammaincc, but for the erfcx form at sigma =
    1/2 and the small-x series at 0 < sigma < 1, x < 1.5, which are within
    6e-15); sigma <= 0 is the value of gamma_upper_dsigma_vec's pair,
    within 8.5e-15, with no recurrence step that divides by sigma -
    ceil(sigma).
    """
    x = _checked(sigma, x)
    if sigma > 0.0:
        return gamma_upper_reg_vec(sigma, x) * math.gamma(sigma)
    return _gamma_pair(sigma, x)[0]


def gamma_upper_dsigma_vec(sigma, x):
    """The pair (Gamma(sigma, x), d/dsigma Gamma(sigma, x)) for scalar sigma
    and x >= 0, an array or a float; x = 0 gives (Gamma(sigma),
    Gamma(sigma) psi(sigma)) for sigma > 0 and raises DivergentIntegral for
    sigma <= 0.

    One pass, with no difference quotient: for x at or above max(1.5,
    sigma) the Legendre continued fraction, differentiated along its
    backward evaluation; below it _gamma_series, the series that
    gamma_upper_reg_vec also takes at 0 < sigma < 1: for sigma >= 1/2,
    Gamma(sigma) minus the positive lower series, and otherwise a series at
    the order sigma - round(sigma) that stays regular through 0, then the
    differentiated downward recurrence, whose steps all divide by at least
    1/2.  Each element takes exactly the steps of its own band of x, so
    its pair does not depend on the rest of the array.

    Accuracy against mpmath at 30 digits, Gamma relative and d/dsigma Gamma
    relative to max(|Gamma|, |d/dsigma Gamma|) (it crosses zero), measured
    over sigma in [-3.3, 10] and x in [1e-3, 60]: within 1.3e-14 and
    2.8e-14, and within 1e-14 for sigma up to 20 and x up to 80.  The
    largest errors sit just below x = 1.5, where the series cancels by up
    to about ten times before the continued fraction takes over; orders
    just below an integer are no worse (sigma = -1e-9 and -2.0004: 4e-15).
    """
    return _gamma_pair(sigma, _checked(sigma, x))


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

import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sc

from perisum import specfun as sf
from perisum.errors import DivergentIntegral, PoleAtOne


# ---------------------------------------------------------------------------
# upper incomplete gamma
# ---------------------------------------------------------------------------


def test_gamma_upper_exponential_identity():
    # Gamma(1, x) = e^-x
    assert sf.gamma_upper(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)


def test_gamma_upper_erfc_identity():
    # Gamma(1/2, x^2) = sqrt(pi) erfc(x)
    assert sf.gamma_upper(0.5, 1.0) == pytest.approx(
        math.sqrt(math.pi) * math.erfc(1.0), rel=1e-13)


def test_gamma_upper_negative_sigma_vs_quadrature():
    # oracle: adaptive quadrature of the defining integral on [1, 60]
    val, err = integrate.quad(lambda t: t ** (-1.5) * math.exp(-t), 1.0, 60.0,
                              epsabs=1e-14, epsrel=1e-13, limit=300)
    assert err < 1e-12
    assert sf.gamma_upper(-0.5, 1.0) == pytest.approx(val, rel=1e-10)


def test_gamma_upper_recurrence_randomized():
    # Gamma(sigma+1, x) = sigma Gamma(sigma, x) + x^sigma e^-x
    rng = np.random.default_rng(42)
    for _ in range(1000):
        sigma = rng.uniform(-3.0, 30.0)
        x = rng.uniform(1e-3, 50.0)
        lhs = sf.gamma_upper(sigma + 1.0, x)
        rhs = sigma * sf.gamma_upper(sigma, x) + x**sigma * math.exp(-x)
        assert abs(lhs - rhs) <= 1e-11 * abs(lhs)


def test_e1_equals_gamma_upper_at_zero():
    # Gamma(0, x) and E1(x) both against mpmath's E1
    mpmath = pytest.importorskip("mpmath")
    for x in np.geomspace(1e-3, 30.0, 40):
        with mpmath.workdps(30):
            exact = float(mpmath.e1(float(x)))
        assert abs(sf.exp_integral_e1(x) - exact) <= 1e-12
        assert abs(sf.gamma_upper(0.0, x) - exact) <= 1e-12


def test_gamma_upper_vec_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.05, 30.0, size=64)
    for sigma in (2.5, 0.25, -0.5, -1.0, -2.0, 0.0, 14.0):
        vec = sf.gamma_upper_vec(sigma, xs)
        with mpmath.workdps(30):
            exact = [float(mpmath.gammainc(sigma, float(x))) for x in xs]
        for v, e in zip(vec, exact):
            assert v == pytest.approx(e, rel=1e-10, abs=1e-300)


def test_gamma_upper_vec_accuracy_against_mpmath():
    # measured over eight seeds of 2000 cases: at most 3.6e-14 relative for
    # sigma > 0 (scipy's gammaincc) and 8.5e-15 for sigma <= 0, which is the
    # value of the (Gamma, d/dsigma Gamma) pair and so has no recurrence
    # step that divides by sigma - ceil(sigma)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    sigmas = rng.uniform(-3.0, 30.0, 1000)
    xs = 50.0 * (1.0 - rng.random(1000))  # (0, 50]
    worst_pos = worst_neg = 0.0
    for sigma, x in zip(sigmas.tolist(), xs.tolist()):
        with mpmath.workdps(30):
            exact = float(mpmath.gammainc(sigma, x))
        rel = abs(sf.gamma_upper_vec(sigma, x) - exact) / abs(exact)
        if sigma > 0.0:
            worst_pos = max(worst_pos, rel)
        else:
            worst_neg = max(worst_neg, rel)
    assert worst_pos <= 5e-14
    assert worst_neg <= 2e-14


# orders on both sides of 1/2, where the small-x series replaces gammaincc
_SMALL_X_ORDERS = (0.01, 0.1, 0.25, 0.4, 0.45, 0.55, 0.75, 0.95)


def test_gamma_upper_small_x_band_against_mpmath():
    # below x = 1.5 the central form (sigma < 1/2) and Gamma(sigma) minus
    # the lower series (sigma > 1/2) were measured within 5.1e-15 of 40
    # digits; the gate is the Riesz terms' rel_accuracy
    mpmath = pytest.importorskip("mpmath")
    xs = np.unique(np.concatenate([np.linspace(0.0, 1.5, 202)[1:],
                                   [1e-300, 1e-12, 1e-6, 1.5 - 1e-12]]))
    for sigma in _SMALL_X_ORDERS:
        with mpmath.workdps(40):
            q = [mpmath.gammainc(sigma, mpmath.mpf(x), regularized=True)
                 for x in xs.tolist()]
            g = [float(v * mpmath.gamma(sigma)) for v in q]
        q = np.array([float(v) for v in q])
        rel = np.abs(sf.gamma_upper_reg_vec(sigma, xs) - q) / q
        assert rel.max() <= 4e-14, (sigma, rel.max())
        rel = np.abs(sf.gamma_upper_vec(sigma, xs) - g) / np.array(g)
        assert rel.max() <= 4e-14, (sigma, rel.max())


def test_gamma_upper_small_x_band_elementwise():
    # a scalar, a one-element array and an element of a long mixed array
    # give the same bits: the series sums each element on its own.  So does
    # the (Gamma, d/dsigma Gamma) pair below its series edge max(1.5, sigma),
    # which takes the same series
    rng = np.random.default_rng(5)
    xs = np.concatenate([rng.uniform(0.0, 1.5, 300), rng.uniform(1.5, 9.0, 60),
                         [0.0, 1.5]])
    rng.shuffle(xs)
    for sigma in _SMALL_X_ORDERS:
        batch = sf.gamma_upper_reg_vec(sigma, xs)
        for i in range(0, xs.size, 7):
            one = sf.gamma_upper_reg_vec(sigma, np.array([xs[i]]))
            assert one[0] == batch[i]
            assert sf.gamma_upper_reg_vec(sigma, float(xs[i])) == batch[i]
        above = xs >= 1.5
        assert np.array_equal(batch[above], sc.gammaincc(sigma, xs[above]))
    positive = xs[xs > 0.0]
    for sigma in _SMALL_X_ORDERS + (-2.0004, -0.35, 0.5, 2.25, 7.5, 150.0):
        g, dg = sf.gamma_upper_dsigma_vec(sigma, positive)
        for i in np.flatnonzero(positive < max(1.5, sigma))[::7].tolist():
            x = positive[i]
            one, done = sf.gamma_upper_dsigma_vec(sigma, np.array([x]))
            assert (one[0], done[0]) == (g[i], dg[i])
            assert sf.gamma_upper_dsigma_vec(sigma, float(x)) == (g[i], dg[i])


def test_gamma_upper_small_x_band_at_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sigma in _SMALL_X_ORDERS:
            assert sf.gamma_upper_reg_vec(sigma, 0.0) == 1.0
            assert sf.gamma_upper_reg_vec(sigma, np.zeros(3)).tolist() == [1.0] * 3
            assert sf.gamma_upper_vec(sigma, 0.0) == math.gamma(sigma)


# the direct and dual orders of test_envelopes_match_array_formulas (s/2 and
# (d - s)/2 for its Riesz and log-Riesz exponents, d = 1, 2, 3) and the
# near-integer orders where a recurrence from the fractional part of sigma
# divides by a small number
_PAIR_ORDERS = sorted({0.25, 0.5, 1.5, 2.25, 0.85, -1e-9, -2.0004} | {
    (d - s) / 2.0 for s in (0.5, 1.0, 3.0, 4.5, 1.7) for d in (1, 2, 3)})


def test_gamma_upper_dsigma_vec_against_mpmath():
    # Gamma by relative error, d/dsigma Gamma by its error over max(|Gamma|,
    # |d/dsigma Gamma|), since it crosses zero.  Measured over these 19
    # orders at 24 x per order and eight seeds: 5.9e-15 and 1.3e-14; a
    # denser sweep of sigma in [-3.3, 10] and x in [1e-3, 60] reached
    # 2.8e-14 for d/dsigma Gamma at sigma = -1/2 just below x = 1.5, where
    # the series hands over to the continued fraction
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    xs = np.concatenate([np.exp(rng.uniform(math.log(1e-3), math.log(60.0), 16)),
                         rng.uniform(1e-3, 60.0, 8)])
    worst_g = worst_dg = 0.0
    for sigma in _PAIR_ORDERS:
        g, dg = sf.gamma_upper_dsigma_vec(sigma, xs)
        for x, a, b in zip(xs.tolist(), g, dg):
            with mpmath.workdps(30):
                exact = float(mpmath.gammainc(sigma, x))
                dexact = float(mpmath.diff(lambda t: mpmath.gammainc(t, x), sigma))
            worst_g = max(worst_g, abs(a - exact) / abs(exact))
            worst_dg = max(worst_dg, abs(b - dexact) / max(abs(exact), abs(dexact)))
    assert worst_g <= 1e-14
    assert worst_dg <= 3e-14
    # large orders up to x = 0.999 sigma, below the series edge sigma: 40
    # and 150 (log-Riesz s = 300, which the CLI tests reach) were measured
    # within 6.5e-15 and 7.7e-14, mostly the rounding of e^(sigma log x)
    worst = 0.0
    for sigma in (40.0, 150.0):
        xs = sigma * np.concatenate([[1e-5, 0.999], rng.uniform(0.01, 0.999, 10)])
        g, dg = sf.gamma_upper_dsigma_vec(sigma, xs)
        assert np.isfinite(g).all() and np.isfinite(dg).all()
        for x, a, b in zip(xs.tolist(), g, dg):
            with mpmath.workdps(40):
                exact = float(mpmath.gammainc(sigma, x))
                dexact = float(mpmath.diff(lambda t: mpmath.gammainc(t, x), sigma))
            worst = max(worst, abs(a - exact) / abs(exact),
                        abs(b - dexact) / max(abs(exact), abs(dexact)))
    assert worst <= 1e-13
    # a float x gives what an array element gives
    for sigma in (-2.0004, 0.25):
        g, dg = sf.gamma_upper_dsigma_vec(sigma, np.array([0.7, 2.5, 30.0]))
        one = sf.gamma_upper_dsigma_vec(sigma, 2.5)
        assert one == (pytest.approx(g[1], rel=1e-15, abs=0.0),
                       pytest.approx(dg[1], rel=1e-15, abs=0.0))


def test_gamma_upper_vec_domain_errors_on_arrays():
    x = np.array([2.0, 0.0, 1.0])
    with pytest.raises(DivergentIntegral):
        sf.gamma_upper_vec(-0.5, x)
    # the pair diverges at x = 0 exactly where Gamma does, for sigma <= 0,
    # and is (Gamma(sigma), Gamma(sigma) psi(sigma)) there for sigma > 0
    with pytest.raises(DivergentIntegral):
        sf.gamma_upper_dsigma_vec(0.0, x)
    with pytest.raises(DivergentIntegral):
        sf.gamma_upper_dsigma_vec(-1e-9, x)
    g, dg = sf.gamma_upper_dsigma_vec(0.001, x)
    assert g[1] == math.gamma(0.001)
    assert dg[1] == math.gamma(0.001) * sc.digamma(0.001)
    with pytest.raises(ValueError):
        sf.gamma_upper_vec(1.5, -x)
    assert sf.gamma_upper_vec(1.5, x)[1] == math.gamma(1.5)
    assert sf.gamma_upper_vec(-0.5, np.array([])).shape == (0,)


def test_gamma_upper_domain_errors():
    with pytest.raises(DivergentIntegral):
        sf.gamma_upper(-1.0, 0.0)
    with pytest.raises(ValueError):
        sf.gamma_upper(1.0, -1.0)
    assert sf.gamma_upper(2.5, 0.0) == pytest.approx(math.gamma(2.5), rel=1e-14)


# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------


def test_hurwitz_reduces_to_riemann():
    assert sf.hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)


def test_hurwitz_half_argument():
    # sum over all integers of (n + 1/2)^-2 equals pi^2, so zeta(2; 1/2)
    # is pi^2/2; brute-force partial sum plus integral tail as the oracle
    n = np.arange(0, 10**6, dtype=float)
    partial = float(np.sum((n + 0.5) ** -2.0))
    tail = 1.0 / (10**6 - 0.5)  # integral of (t+1/2)^-2 from 10^6
    oracle = partial + tail
    val = sf.hurwitz_zeta(2.0, 0.5)
    assert val == pytest.approx(math.pi**2 / 2.0, rel=1e-13)
    assert val == pytest.approx(oracle, rel=1e-11)


def test_hurwitz_recurrence_randomized():
    # zeta(s; q) = q^-s + zeta(s; q+1)
    rng = np.random.default_rng(7)
    count = 0
    while count < 1000:
        s = rng.uniform(-2.0, 60.0)
        if abs(s - 1.0) < 1e-3:
            continue
        q = rng.uniform(1e-2, 2.0)
        lhs = sf.hurwitz_zeta(s, q)
        shifted = sf.hurwitz_zeta(s, q + 1.0)
        rhs = q ** (-s) + shifted
        # relative to the identity's own term scale; near zeros of zeta the
        # subtraction cancels below any fixed-precision result's resolution
        scale = max(abs(lhs), abs(shifted), q ** (-s))
        assert abs(lhs - rhs) <= 1e-11 * scale
        count += 1


def test_multiplication_identity_grid():
    # sum_{j=1..n} zeta(s; j/n) = n^s zeta(s)
    for n in (2, 3, 5, 8):
        for s in (0.5, 2.0, 3.7, 6.0):
            lhs = sum(sf.hurwitz_zeta(s, j / n) for j in range(1, n + 1))
            rhs = n**s * sf.riemann_zeta(s)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_multiplication_identity_n7():
    lhs = sum(sf.hurwitz_zeta(3.5, j / 7.0) for j in range(1, 8))
    assert lhs == pytest.approx(7.0**3.5 * sf.riemann_zeta(3.5), rel=1e-12)


def test_hurwitz_pole():
    with pytest.raises(PoleAtOne):
        sf.hurwitz_zeta(1.0 + 1e-13, 0.5)
    with pytest.raises(ValueError):
        sf.hurwitz_zeta(2.0, -0.5)


# ---------------------------------------------------------------------------
# derivatives of the Hurwitz zeta
# ---------------------------------------------------------------------------


def _zeta_ds_tail_oracle(s, m=200000):
    """zeta'(s) by direct sum with an Euler-Maclaurin style tail built from
    a different decomposition than the library's (integral of log t * t^-s
    plus half-term and first derivative corrections)."""
    k = np.arange(1, m, dtype=float)
    partial = -float(np.sum(np.log(k) * k ** (-s)))
    # tail of -sum log(k) k^-s from m: -(integral + f(m)/2 - f'(m)/12)
    lm = math.log(m)
    integral = math.exp(-(s - 1.0) * lm) * (lm / (s - 1.0) + 1.0 / (s - 1.0) ** 2)
    f_m = lm * m ** (-s)
    fp_m = m ** (-s - 1.0) * (1.0 - s * lm)
    return partial - integral - 0.5 * f_m - fp_m / 12.0


def test_riemann_zeta_ds_against_series_oracle():
    val = sf.riemann_zeta_ds(2.0)
    assert val == pytest.approx(_zeta_ds_tail_oracle(2.0), rel=1e-10)


def test_hurwitz_ds_central_difference():
    for s, q in [(3.2, 0.3), (2.0, 1.0), (0.5, 0.7)]:
        h = 1e-5
        fd = (sf.hurwitz_zeta(s + h, q) - sf.hurwitz_zeta(s - h, q)) / (2 * h)
        assert sf.hurwitz_zeta_ds(s, q) == pytest.approx(fd, rel=1e-7)


def test_hurwitz_ds_smooth_at_half():
    val = sf.hurwitz_zeta_ds(2.0, 0.5)
    assert math.isfinite(val)
    near = sf.hurwitz_zeta_ds(2.0, 0.5 + 1e-6)
    assert val == pytest.approx(near, rel=1e-4)


def test_hurwitz_dq_identity():
    # d/dq zeta(s; q) = -s zeta(s+1; q)
    assert sf.hurwitz_zeta_dq(2.0, 0.5) == pytest.approx(
        -2.0 * sf.hurwitz_zeta(3.0, 0.5), rel=1e-14)
    assert sf.hurwitz_zeta_dq(1.5, 1.0) == pytest.approx(
        -1.5 * sf.riemann_zeta(2.5), rel=1e-14)


def test_hurwitz_dq_central_difference():
    s, q = 2.7, 0.31
    h = 1e-6
    fd = (sf.hurwitz_zeta(s, q + h) - sf.hurwitz_zeta(s, q - h)) / (2 * h)
    assert sf.hurwitz_zeta_dq(s, q) == pytest.approx(fd, rel=1e-8)


# ---------------------------------------------------------------------------
# routine functions and constants
# ---------------------------------------------------------------------------


def test_riemann_zeta_two():
    assert sf.riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)


def test_digamma_at_one():
    assert sf.digamma(1.0) == pytest.approx(-sf.euler_gamma(), rel=1e-14)


def test_trigamma_at_half():
    assert sf.trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, rel=1e-13)


def test_erfc_symmetry():
    for x in np.linspace(-3.0, 3.0, 25):
        assert abs(sf.erfc(x) + sf.erfc(-x) - 2.0) <= 1e-14


def _gamma1_partial_sums(m_max):
    k = np.arange(1, m_max + 1, dtype=float)
    return np.cumsum(np.log(k) / k)


def _gamma1_richardson(base_m):
    """Oracle for the first generalized Euler constant: raw partial sums of
    the defining limit at geometric points, extrapolated against the error
    model (a log m + b)/m + (c log m + d)/m^2."""
    points = [base_m * 2**i for i in range(5)]
    sums = _gamma1_partial_sums(points[-1])
    rows, rhs = [], []
    for m in points:
        s_m = sums[m - 1] - 0.5 * math.log(m) ** 2
        lm = math.log(m)
        rows.append([1.0, lm / m, 1.0 / m, lm / m**2, 1.0 / m**2])
        rhs.append(s_m)
    coef = np.linalg.solve(np.array(rows), np.array(rhs))
    return float(coef[0])


def test_stieltjes_gamma1_two_extrapolations_agree():
    a = _gamma1_richardson(10**4)
    b = _gamma1_richardson(10**5)
    print(f"first generalized Euler constant: derived {sf.stieltjes_gamma1()!r},"
          f" extrapolations {a!r} / {b!r}")
    assert abs(a - b) <= 1e-10
    assert sf.stieltjes_gamma1() == pytest.approx(a, abs=1e-10)

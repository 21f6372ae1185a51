import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from perisum import kernel as kn
from perisum import specfun as sf
from perisum.errors import (
    DimensionMismatch,
    InvalidParameter,
    LatticePoint,
    PlanMismatch,
    PolePoint,
    UnreachableTolerance,
)
from perisum.lattice import enumerate_shells, lattice_from_basis, lattice_preset

Z1 = lattice_preset("Z1")
Z2 = lattice_preset("Z2")
Z3 = lattice_preset("Z3")
HEX = lattice_preset("hex")


def _riesz(lat, q, s, tol=1e-12, eta=1.0):
    plan = kn.plan_ewald(lat, kn.Riesz(s), tol, eta=eta)
    d = lat.dimension
    return kn.kernel_value(plan, np.atleast_1d(np.asarray(q, float)),
                           np.zeros(d)).value


# ---------------------------------------------------------------------------
# potentials and plans
# ---------------------------------------------------------------------------


def test_parse_potential():
    assert kn.parse_potential("riesz:2") == kn.Riesz(2.0)
    assert kn.parse_potential("logriesz:1.5") == kn.LogRiesz(1.5)
    assert kn.parse_potential("log") == kn.Log()
    assert kn.parse_potential("gaussian:3") == kn.Gaussian(3.0)
    for bad in ("riesz:-1", "riesz:0", "gaussian:-2", "nope", "log:2"):
        with pytest.raises(ValueError):
            kn.parse_potential(bad)


@pytest.mark.parametrize("pot", [kn.Riesz(0.75), kn.Riesz(2.0),
                                 kn.LogRiesz(1.5), kn.Log(),
                                 kn.Gaussian(3.0), kn.Riesz(1.2345678),
                                 kn.LogRiesz(0.1 + 0.2), kn.Gaussian(1e-7)],
                         ids=lambda p: p.label)
def test_label_round_trip(pot):
    assert kn.parse_potential(pot.label) == pot


def test_labels_in_use_keep_their_text():
    # the checks grid's potentials, as every plan JSON names them
    for text in ("riesz:0.5", "riesz:1", "riesz:2.5", "logriesz:0.5",
                 "logriesz:1.7", "log", "gaussian:0.5", "gaussian:2"):
        assert kn.parse_potential(text).label == text


def test_plan_cutoffs_and_self_refinement():
    # the r_cut range holds at the canonical split eta = 1; the cost model's
    # default eta takes a shorter direct cutoff
    plan = kn.plan_ewald(Z1, kn.Riesz(2.0), 1e-12, eta=1.0)
    assert 4.0 <= plan.r_cut <= 10.0
    assert plan.guaranteed_abs_err <= 1e-12
    # realized truncation error against a much tighter reference plan
    ref = kn.plan_ewald(Z1, kn.Riesz(2.0), 1e-15)
    q = np.array([0.37])
    v1 = kn.kernel_value(plan, q, np.zeros(1)).value
    v2 = kn.kernel_value(ref, q, np.zeros(1)).value
    assert abs(v1 - v2) < 1e-12


def test_plan_gaussian_has_empty_dual():
    plan = kn.plan_ewald(Z2, kn.Gaussian(2.0), 1e-12)
    assert plan.terms_dual == 0
    assert plan.k_cut == 0.0


def test_plan_realized_error_hex():
    pot = kn.Riesz(1.0)
    plan = kn.plan_ewald(HEX, pot, 1e-10)
    ref = kn.plan_ewald(HEX, pot, 1e-14)
    q = HEX.to_cartesian(np.array([0.23, 0.61]))
    v1 = kn.kernel_value(plan, q, np.zeros(2)).value
    v2 = kn.kernel_value(ref, q, np.zeros(2)).value
    assert abs(v1 - v2) < 1e-10


def test_plan_unreachable_tolerance(monkeypatch):
    monkeypatch.setattr(kn, "_SHELL_BUDGET", 10)
    with pytest.raises(UnreachableTolerance):
        kn.plan_ewald(Z2, kn.Riesz(0.5), 1e-12)


def test_plan_n_points_must_be_a_count_of_at_least_two():
    for bad in (1, 0, -3, 2.0, 16.5, True, "16", math.nan):
        with pytest.raises(InvalidParameter):
            kn.plan_ewald(Z1, kn.Riesz(0.5), 1e-12, n_points=bad)
    # refused with a given eta too, which the count does not change
    with pytest.raises(InvalidParameter):
        kn.plan_ewald(Z1, kn.Riesz(0.5), 1e-12, 4.0, n_points=1)
    plan = kn.plan_ewald(Z1, kn.Riesz(0.5), 1e-12, 4.0, n_points=np.int64(32))
    assert plan.eta == 4.0


def test_plan_eta_grows_with_the_point_count():
    # the direct part of an energy costs N^2, the structure factors N, so
    # the priced split does not fall as N grows and leaves the pair ladder
    # (1 ... 128) in d = 1; without a count the per-pair choice is kept
    for lat, pot in ((Z1, kn.Riesz(0.5)), (Z2, kn.Riesz(1.0)),
                     (Z3, kn.LogRiesz(0.5)), (HEX, kn.Log())):
        etas = [kn.plan_ewald(lat, pot, 1e-12, n_points=n).eta
                for n in (2, 8, 32, 128, 1024)]
        assert etas == sorted(etas), (pot.label, etas)
        assert etas[-1] > etas[0], (pot.label, etas)
        assert kn.plan_ewald(lat, pot, 1e-12).eta <= 128.0
    assert kn.plan_ewald(Z1, kn.Riesz(0.5), 1e-12, n_points=1024).eta > 128.0
    # the Gaussian has no split to price
    assert kn.plan_ewald(Z2, kn.Gaussian(2.0), 1e-12, n_points=64).eta == 1.0


def test_plan_mismatch_raised():
    plan = kn.plan_ewald(Z1, kn.Riesz(2.0), 1e-10)
    q = np.array([[0.5]])
    with pytest.raises(PlanMismatch):
        kn.evaluate_batch(Z1, kn.Riesz(3.0), plan, q)
    with pytest.raises(PlanMismatch):
        kn.evaluate_batch(Z1, kn.Log(), plan, q)
    # the Coulomb form refuses a Riesz(1) plan built on another lattice
    fcc_plan = kn.plan_ewald(lattice_preset("fcc-like"), kn.Riesz(1.0), 1e-10)
    with pytest.raises(PlanMismatch):
        kn.coulomb_kernel(Z3, np.full(3, 0.3), np.zeros(3), fcc_plan)


# ---------------------------------------------------------------------------
# Riesz kernel
# ---------------------------------------------------------------------------


def test_riesz_z1_half_closed_form():
    # zeta_Z(2; 1/2) - 2 sqrt(pi)/(Gamma(1) * 1) with zeta_Z(2; 1/2) = pi^2
    val = _riesz(Z1, 0.5, 2.0)
    assert val == pytest.approx(math.pi**2 - 2.0 * math.sqrt(math.pi), rel=1e-13)


def test_riesz_z1_half_brute_force_zeta_part():
    # brute-force the defining sum of zeta_Z(2; 1/2)
    n = np.arange(-10**6, 10**6 + 1, dtype=float)
    zeta_part = float(np.sum(np.abs(0.5 + n) ** -2.0))
    assert zeta_part == pytest.approx(math.pi**2, rel=1e-6)


def test_riesz_small_s_vanishes():
    s = 1e-6
    val = _riesz(Z1, 0.3, s)
    assert abs(val) < 1e-5
    assert abs(math.gamma(s / 2.0) * val) < 10.0  # Gamma(s/2) K_s stays bounded


def test_riesz_at_lattice_point_infinite():
    plan = kn.plan_ewald(Z1, kn.Riesz(2.0), 1e-10)
    kv = kn.kernel_value(plan, np.array([1.0]), np.zeros(1))
    assert kv.value == math.inf


def test_riesz_symmetry_bitwise():
    plan = kn.plan_ewald(HEX, kn.Riesz(1.3), 1e-12)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = HEX.to_cartesian(rng.random(2))
        y = HEX.to_cartesian(rng.random(2))
        a = kn.kernel_value(plan, x, y).value
        b = kn.kernel_value(plan, y, x).value
        assert a == b


def test_riesz_periodicity():
    plan = kn.plan_ewald(Z2, kn.Riesz(0.8), 1e-12)
    rng = np.random.default_rng(6)
    for _ in range(100):
        x = rng.random(2)
        y = rng.random(2)
        k = rng.integers(-3, 4, size=2).astype(float)
        a = kn.kernel_value(plan, x, y).value
        b = kn.kernel_value(plan, x + k, y).value
        assert abs(a - b) <= 1e-11 * max(1.0, abs(a))


def test_riesz_eta_invariance():
    for d, lat in ((1, Z1), (2, Z2), (3, Z3)):
        rng = np.random.default_rng(d)
        for s in (0.5, 1.0, 2.5):
            q = lat.to_cartesian(rng.uniform(0.2, 0.8, d))
            vals = [_riesz(lat, q, s, tol=1e-12, eta=eta)
                    for eta in (0.5, 1.0, 2.0)]
            assert max(vals) - min(vals) <= 1e-10


def test_riesz_lower_semicontinuity_blowup():
    vals = [_riesz(Z2, np.array([t, 0.0]), 1.5) for t in (0.2, 0.1, 0.05, 0.01)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1e2


def test_constant_shift_against_brute_force():
    # s > d: the continued kernel differs from the direct sum by the shift
    n = np.arange(-300000, 300001, dtype=float)
    for q in (0.29, 0.64):
        brute = float(np.sum(np.abs(q + n) ** -3.0))
        val = _riesz(Z1, q, 3.0, tol=1e-13)
        const = 2.0 * math.sqrt(math.pi) / (math.gamma(1.5) * (3.0 - 1.0))
        assert brute - val == pytest.approx(const, rel=1e-9)


# ---------------------------------------------------------------------------
# Epstein-Hurwitz zeta
# ---------------------------------------------------------------------------


def test_epstein_hurwitz_direct_sum_d1():
    n = np.arange(-10**5, 10**5 + 1, dtype=float)
    brute = float(np.sum(np.abs(0.5 + n) ** -3.0))
    val = kn.epstein_hurwitz_zeta(Z1, np.array([0.5]), 3.0)
    assert val == pytest.approx(brute, rel=1e-9)


def test_epstein_hurwitz_direct_sum_d2():
    # s = 4 on the square lattice converges too slowly for a deep brute
    # force; the box scan pins the continuation to ~1e-5 absolute
    i = np.arange(-1200, 1201, dtype=float)
    gx, gy = np.meshgrid(i, i, indexing="ij")
    q = np.array([0.5, 0.5])
    r2 = (q[0] + gx) ** 2 + (q[1] + gy) ** 2
    brute = float(np.sum(r2 ** -2.0))
    val = kn.epstein_hurwitz_zeta(Z2, q, 4.0)
    assert val == pytest.approx(brute, abs=5e-5)


def test_epstein_hurwitz_mean_zero():
    # integral of the continued zeta over the cell vanishes for 0 < s < d;
    # 64-point Gauss-Legendre after subtracting the edge singularities
    s = 0.5
    nodes, weights = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    vals = np.array([
        kn.epstein_hurwitz_zeta(Z1, np.array([q]), s, tol=1e-13)
        - q ** (-s) - (1.0 - q) ** (-s)
        for q in t
    ])
    smooth = float(np.dot(w, vals))
    singular = 2.0 / (1.0 - s)  # integral of q^-s plus (1-q)^-s over (0,1)
    assert abs(smooth + singular) <= 1e-6


def test_epstein_hurwitz_poles_and_lattice_points():
    with pytest.raises(PolePoint):
        kn.epstein_hurwitz_zeta(Z1, np.array([0.5]), 1.0)
    with pytest.raises(LatticePoint):
        kn.epstein_hurwitz_zeta(Z1, np.array([2.0]), 3.0)


def test_epstein_zeta_z1_is_twice_riemann():
    for s in (2.0, 3.0, 0.5):
        assert kn.epstein_zeta(Z1, s) == pytest.approx(
            2.0 * sf.riemann_zeta(s), rel=1e-11)


# ---------------------------------------------------------------------------
# Coulomb form
# ---------------------------------------------------------------------------


def test_coulomb_matches_riesz_s1():
    plan = kn.plan_ewald(Z3, kn.Riesz(1.0), 1e-12)
    x = np.array([0.5, 0.5, 0.5])
    a = kn.coulomb_kernel(Z3, x, np.zeros(3), plan)
    b = kn.kernel_value(plan, x, np.zeros(3))
    assert math.isfinite(a.value)
    assert a.value == pytest.approx(b.value, abs=1e-12)
    rng = np.random.default_rng(9)
    for _ in range(5):
        y = rng.random(3)
        a = kn.coulomb_kernel(Z3, y, np.zeros(3), plan).value
        b = kn.kernel_value(plan, y, np.zeros(3)).value
        assert a == pytest.approx(b, abs=1e-12)


def test_coulomb_lattice_point_and_symmetry():
    plan = kn.plan_ewald(Z3, kn.Riesz(1.0), 1e-12)
    assert kn.coulomb_kernel(Z3, np.ones(3), np.zeros(3), plan).value == math.inf
    x, y = np.array([0.2, 0.7, 0.4]), np.array([0.9, 0.1, 0.5])
    assert (kn.coulomb_kernel(Z3, x, y, plan).value
            == kn.coulomb_kernel(Z3, y, x, plan).value)


def test_coulomb_dimension_guard():
    plan = kn.plan_ewald(Z2, kn.Riesz(1.0), 1e-10)
    with pytest.raises(DimensionMismatch):
        kn.coulomb_kernel(Z2, np.array([0.5, 0.5]), np.zeros(2), plan)


# ---------------------------------------------------------------------------
# log-Riesz and logarithmic kernels
# ---------------------------------------------------------------------------


def test_logriesz_matches_s_derivative():
    s0, h = 1.3, 1e-5
    q = Z2.to_cartesian(np.array([0.27, 0.55]))
    plan = kn.plan_ewald(Z2, kn.LogRiesz(s0), 1e-12)
    lr = kn.kernel_value(plan, q, np.zeros(2)).value
    cd = (_riesz(Z2, q, s0 + h, tol=1e-13)
          - _riesz(Z2, q, s0 - h, tol=1e-13)) / h
    assert lr == pytest.approx(cd, rel=1e-6)


def test_logriesz_symmetry_and_singularity():
    plan = kn.plan_ewald(Z1, kn.LogRiesz(2.0), 1e-12)
    a = kn.kernel_value(plan, np.array([0.3]), np.zeros(1)).value
    b = kn.kernel_value(plan, np.zeros(1), np.array([0.3])).value
    assert a == b
    assert kn.kernel_value(plan, np.ones(1), np.zeros(1)).value == math.inf


def test_logriesz_eta_invariance():
    q = Z1.to_cartesian(np.array([0.37]))
    vals = []
    for eta in (0.5, 1.0, 2.0):
        plan = kn.plan_ewald(Z1, kn.LogRiesz(1.7), 1e-12, eta=eta)
        vals.append(kn.kernel_value(plan, q, np.zeros(1)).value)
    assert max(vals) - min(vals) <= 1e-9


def test_log_kernel_small_s_limit():
    # Gamma(s/2) K_s -> K_log as s -> 0
    rng = np.random.default_rng(11)
    plan = kn.plan_ewald(Z2, kn.Log(), 1e-12)
    s = 1e-5
    for _ in range(5):
        q = Z2.to_cartesian(rng.uniform(0.1, 0.9, 2))
        lv = kn.kernel_value(plan, q, np.zeros(2)).value
        rv = math.gamma(s / 2.0) * _riesz(Z2, q, s, tol=1e-13)
        assert abs(lv - rv) < 1e-4


def test_log_kernel_translation_invariance():
    plan = kn.plan_ewald(Z2, kn.Log(), 1e-12)
    x = np.array([0.31, 0.72])
    v = np.array([2.0, -1.0])
    a = kn.kernel_value(plan, x, np.zeros(2)).value
    b = kn.kernel_value(plan, x + v, np.zeros(2)).value
    assert abs(a - b) <= 1e-11


def test_log_kernel_eta_invariance():
    q = Z2.to_cartesian(np.array([0.41, 0.13]))
    vals = []
    for eta in (0.5, 1.0, 2.0):
        plan = kn.plan_ewald(Z2, kn.Log(), 1e-12, eta=eta)
        vals.append(kn.kernel_value(plan, q, np.zeros(2)).value)
    assert max(vals) - min(vals) <= 1e-10


# ---------------------------------------------------------------------------
# Gaussian kernel and the convergence-factor oracle
# ---------------------------------------------------------------------------


def _gaussian(lat, q, c, tol):
    plan = kn.plan_ewald(lat, kn.Gaussian(c), tol)
    return kn.kernel_value(plan, q, np.zeros(lat.dimension))


def test_gaussian_theta_identity():
    # direct sum at the origin equals the dual-side Poisson sum
    c = math.pi
    kv = _gaussian(Z1, np.zeros(1), c, 1e-14)
    n = np.arange(-10, 11, dtype=float)
    direct = float(np.exp(-c * n * n).sum())
    dual = (math.pi / c) ** 0.5 * float(np.exp(-math.pi**2 * n * n / c).sum())
    assert direct == pytest.approx(dual, abs=1e-15)
    assert kv.value == pytest.approx(direct, abs=1e-13)  # c >= 1: no constant


def test_gaussian_large_c_single_term():
    kv = _gaussian(Z1, np.zeros(1), 500.0, 1e-12)
    assert kv.value == pytest.approx(1.0, abs=1e-12)
    assert kv.value >= 1.0


def test_gaussian_small_c_constant_branch():
    # c < 1 subtracts (pi/c)^(d/2); the remainder matches the dual-side
    # Poisson sum without its zero mode
    c = 0.4
    q = np.array([0.3])
    kv = _gaussian(Z1, q, c, 1e-13)
    w = np.arange(1, 12, dtype=float)
    dual = (math.pi / c) ** 0.5 * 2.0 * float(
        np.sum(np.cos(2 * math.pi * w * 0.3) * np.exp(-math.pi**2 * w * w / c)))
    assert kv.value == pytest.approx(dual, abs=1e-12)


def test_poisson_identity_random():
    rng = np.random.default_rng(13)
    for omega in (0.5, 1.0, 4.0):
        x = rng.random(1)
        r = math.sqrt(46.0 / omega) + 1.0
        n = enumerate_shells(Z1, "direct", r)
        lhs = float(np.exp(-omega * (x[0] + n[:, 0]) ** 2).sum())
        k = math.sqrt(46.0 * omega) / math.pi + 1.0
        w = enumerate_shells(Z1, "dual", k)
        rhs = (math.pi / omega) ** 0.5 * float(
            np.sum(np.cos(2 * math.pi * w[:, 0] * x[0])
                   * np.exp(-math.pi**2 * w[:, 0] ** 2 / omega)))
        assert abs(lhs - rhs) < 1e-12


def test_convergence_factor_monotone_approach():
    ref = _riesz(Z1, 0.3, 0.5, tol=1e-13)
    vals = kn.convergence_factor_oracle(Z1, np.array([0.3]), 0.5,
                                        [0.2, 0.1, 0.05])
    gaps = [abs(v - ref) for v in vals]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_convergence_factor_above_dimension():
    # s > d: the limit is the continued direct sum minus the shift constant
    q = np.array([0.3])
    target = (kn.epstein_hurwitz_zeta(Z1, q, 3.0)
              - 2.0 * math.sqrt(math.pi) / (math.gamma(1.5) * 2.0))
    vals = kn.convergence_factor_oracle(Z1, q, 3.0, [0.1, 0.05, 0.02])
    gaps = [abs(v - target) for v in vals]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] / abs(target) < 1e-3
    finite = kn.convergence_factor_oracle(Z1, q, 3.0, [1.0])
    assert math.isfinite(finite[0])


def test_min_image_difference_canonical():
    q = kn.min_image_difference(Z2, np.array([0.9, 0.2]), np.zeros(2))
    assert np.allclose(q, [0.1, -0.2], atol=1e-15)
    q2 = kn.min_image_difference(Z2, np.zeros(2), np.array([0.9, 0.2]))
    assert np.array_equal(q, q2)
    # a batch is canonicalized row by row; on Z1, as check_convexity_1d
    # uses it, each row is the single-point result bit for bit
    x = np.array([[0.9, 0.2], [0.0, 0.7], [0.5, 0.0], [0.3, 0.3]])
    rows = kn.min_image_difference(Z2, x, np.zeros(2))
    assert np.allclose(rows, [[0.1, -0.2], [0.0, 0.3], [0.5, 0.0],
                              [0.3, 0.3]], atol=1e-15)
    assert np.array_equal(rows, kn.min_image_difference(Z2, np.zeros(2), x))
    q1 = np.linspace(-1.5, 1.5, 61)[:, None]
    assert np.array_equal(
        kn.min_image_difference(Z1, q1, np.zeros(1)),
        [kn.min_image_difference(Z1, q, np.zeros(1)) for q in q1])


# ---------------------------------------------------------------------------
# blocked single-pass evaluation
# ---------------------------------------------------------------------------


_FAMILIES = (kn.Riesz(0.8), kn.Riesz(1.0), kn.LogRiesz(1.3), kn.Log(),
             kn.Gaussian(0.7))


def _rows_as_alone(pot, plan, Q, want_grad):
    """evaluate_batch over Q, after checking that every row has the same
    bits as the row evaluated alone."""
    values, grads, degenerate = kn.evaluate_batch(Z2, pot, plan, Q, want_grad)
    for i in range(len(Q)):
        v, g, dg = kn.evaluate_batch(Z2, pot, plan, Q[i:i + 1], want_grad)
        assert dg[0] == degenerate[i]
        assert values[i:i + 1].tobytes() == v.tobytes(), i
        if want_grad:
            assert grads[i].tobytes() == g[0].tobytes(), i
        else:
            assert grads is None and g is None
    return values, grads, degenerate


def _blocked_rows_match(monkeypatch, pot, want_grad, eta):
    plan = kn.plan_ewald(Z2, pot, 1e-10, eta)
    rng = np.random.default_rng(21)
    Q = Z2.to_cartesian(rng.uniform(-0.5, 0.5, (13, 2)))
    Q[7] = 0.0  # a lattice point in the second block
    # at least five rows per block of the longer sum, so its 13 rows fall
    # into blocks of 5, 5 and 3
    monkeypatch.setattr(kn, "_BLOCK_PAIR_IMAGES",
                        5 * max(plan.terms_direct, plan.terms_dual))
    values, grads, degenerate = _rows_as_alone(pot, plan, Q, want_grad)
    assert degenerate.tolist() == [i == 7 for i in range(13)]
    assert (values[7] == math.inf) == (not isinstance(pot, kn.Gaussian))
    if want_grad:
        assert np.array_equal(grads[7], np.zeros(2))


@pytest.mark.parametrize("pot", _FAMILIES, ids=lambda p: p.label)
@pytest.mark.parametrize("want_grad", (False, True))
def test_blocked_batch_matches_row_by_row(monkeypatch, pot, want_grad):
    # at eta = 16 (the planner's choice on Z2) the dual sum is long enough
    # that a gemm/gemv reduction order shows in the gradient rows
    _blocked_rows_match(monkeypatch, pot, want_grad, 16.0)


@pytest.mark.parametrize("pot", _FAMILIES, ids=lambda p: p.label)
@pytest.mark.parametrize("want_grad", (False, True))
def test_blocked_batch_matches_row_by_row_at_eta_1(monkeypatch, pot, want_grad):
    _blocked_rows_match(monkeypatch, pot, want_grad, 1.0)


@pytest.mark.parametrize("want_grad", (False, True))
def test_logriesz_rows_keep_their_bits_in_a_long_batch(want_grad):
    # the (Gamma, d/dsigma Gamma) continued fraction runs each band of x at
    # its own depth, however many elements of the batch fall in each band
    pot = kn.LogRiesz(1.3)
    plan = kn.plan_ewald(Z2, pot, 1e-12, 16.0)
    Q = Z2.to_cartesian(np.random.default_rng(3).uniform(-0.5, 0.5, (300, 2)))
    _rows_as_alone(pot, plan, Q, want_grad)


def test_gamma_q_half_erfc_branch():
    mpmath = pytest.importorskip("mpmath")
    x = np.geomspace(1e-8, 700.0, 400)
    q = sf.gamma_upper_reg_vec(0.5, x)
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.gammainc(0.5, float(v), regularized=True))
                          for v in x])
    assert np.max(np.abs(q - exact) / exact) <= 1e-15
    # scipy's gammaincc itself drifts to ~1e-13 at large x
    from scipy.special import gammaincc
    ref = gammaincc(0.5, x)
    assert np.max(np.abs(q - ref) / ref) <= 2e-13
    # the dual coefficients reach the same branch through gamma_upper_vec at
    # sigma = 1/2; sigma = -1/2 takes the value of the (Gamma, d/dsigma
    # Gamma) pair, which has no recurrence from sigma = 1/2 above x = 1.5
    assert np.array_equal(sf.gamma_upper_vec(0.5, x), q * math.gamma(0.5))
    down = sf.gamma_upper_vec(-0.5, x)
    assert np.array_equal(down, sf.gamma_upper_dsigma_vec(-0.5, x)[0])
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.gammainc(-0.5, float(v))) for v in x])
    assert np.max(np.abs(down - exact) / exact) <= 1e-14


@pytest.mark.parametrize("lat,pot", [(Z3, kn.Riesz(1.0)), (HEX, kn.Riesz(0.7)),
                                     (HEX, kn.LogRiesz(0.5)),
                                     (Z2, kn.LogRiesz(1.0))],
                         ids=["Z3-riesz1", "hex-riesz0.7", "hex-logriesz0.5",
                              "Z2-logriesz1"])
def test_total_energy_gradient_central_difference(lat, pot):
    from perisum import energy as en
    plan = kn.plan_ewald(lat, pot, 1e-12)
    cfg = en.Configuration.random(lat, 5, np.random.default_rng(31))
    g = en.total_energy(cfg, pot, plan, with_gradient=True).gradient
    h = 1e-6
    fd = np.zeros_like(g)
    for i in range(cfg.n_points):
        for mu in range(lat.dimension):
            step = np.zeros_like(cfg.points)
            step[i, mu] = h
            ep = en.total_energy(en.Configuration(lat, cfg.points + step), pot, plan)
            em = en.total_energy(en.Configuration(lat, cfg.points - step), pot, plan)
            fd[i, mu] = (ep.energy - em.energy) / (2.0 * h)
    assert np.max(np.abs(fd - g)) <= 1e-6 * np.max(np.abs(g))


def _batch_peak_bytes(n):
    import tracemalloc

    from perisum import energy as en
    pot = kn.Riesz(1.0)
    plan = kn.plan_ewald(Z3, pot, 1e-10)
    cfg = en.Configuration.random(Z3, n, np.random.default_rng(n))
    _, _, Q = en._pair_differences(cfg)
    tracemalloc.start()
    try:
        kn.evaluate_batch(Z3, pot, plan, Q, want_grad=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_batch_memory_bounded_in_n():
    peak64 = _batch_peak_bytes(64)
    peak128 = _batch_peak_bytes(128)  # four times the pair-images
    assert peak64 < 64 * 2**20
    assert peak128 < 64 * 2**20
    assert peak128 <= 1.25 * peak64


def _energy_peak_bytes(n):
    import tracemalloc

    from perisum import energy as en
    pot = kn.Riesz(1.0)
    plan = kn.plan_ewald(Z3, pot, 1e-10)
    cfg = en.Configuration.random(Z3, n, np.random.default_rng(n))
    tracemalloc.start()
    try:
        en.total_energy(cfg, pot, plan, with_gradient=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_total_energy_memory_bounded_in_n():
    # the energy's pair arrays (differences, indices, gradients) grow as
    # N^2, by a few dozen bytes a pair; the (pair, image) temporaries of the
    # direct cut stay within a block
    peak64 = _energy_peak_bytes(64)
    peak128 = _energy_peak_bytes(128)  # four times the pair-images
    assert peak64 < 64 * 2**20
    assert peak128 < 64 * 2**20
    assert peak128 <= 1.25 * peak64


# ---------------------------------------------------------------------------
# planner: closed-form tail bounds
# ---------------------------------------------------------------------------


def test_plans_match_reference():
    # cutoffs, term counts and tail bounds of the closed-form planner: the
    # 240 kernel-eval plans of the benchmark's checks grid and the validate
    # shift-suite plans at s > d (Z1 s = 3, 4.5; Z2 s = 6.5, 8; Z3 s = 9.5
    # at tol 1e-13), whose dual orders (d - s)/2 run the integer and the
    # fractional downward recurrence.  test_tail_bounds_hold is the gate
    # these values were written under.
    path = Path(__file__).parent / "data" / "plans_reference.json"
    plans = json.loads(path.read_text())["plans"]
    assert len(plans) == 245
    lats = {}
    for ref in plans:
        name = ref["lattice"]
        lat = lats.setdefault(name, lattice_preset(name))
        plan = kn.plan_ewald(lat, kn.parse_potential(ref["potential"]),
                             ref["tol"], ref["eta"])
        where = f"{name} {ref['potential']} tol={ref['tol']} eta={ref['eta']}"
        assert plan.r_cut == ref["r_cut"], where
        assert plan.k_cut == ref["k_cut"], where
        assert plan.terms_direct == ref["terms_direct"], where
        assert plan.terms_dual == ref["terms_dual"], where
        for key in ("direct_tail_bound", "dual_tail_bound"):
            assert getattr(plan, key) == pytest.approx(
                ref[key], rel=1e-12, abs=0.0), (where, key)


_SWEEP_POTENTIALS = (kn.Riesz(0.5), kn.Riesz(1.0), kn.Riesz(4.5),
                     kn.LogRiesz(0.5), kn.LogRiesz(2.5), kn.Log(),
                     kn.Gaussian(0.5))


def _omitted_terms(plan, ref, Q):
    """What plan's cuts leave out at each row of Q, less what ref's leave
    out: the direct images of ref with plan.r_cut < |q + v| <= ref.r_cut
    (each through the margin the direct sums put on r_cut) and the half
    dual vectors of ref beyond plan.k_cut (through the margin the walk
    puts on its radius), whose complement is exactly plan's.  Returns the
    sum of those terms and the norm of the sum of their gradients, row by
    row."""
    pot, eta, d = plan.potential, plan.eta, plan.lattice.dimension
    assert plan.r_cut <= ref.r_cut
    R = Q[:, None, :] + ref.direct_vectors[None, :, :]
    r2 = np.sum(R * R, axis=2)
    out = ((r2 > (plan.r_cut * (1.0 + kn._CUT_MARGIN)) ** 2)
           & (r2 <= (ref.r_cut * (1.0 + kn._CUT_MARGIN)) ** 2))
    t, radial = pot.direct_terms(eta, np.sqrt(r2), want_grad=True)
    total = np.where(out, t, 0.0).sum(axis=1)
    grad = np.einsum("nv,nvk->nk", np.where(out, radial, 0.0), R)
    beyond = ref.dual_norms_half > plan.k_cut * (1.0 + 1e-12)
    assert np.count_nonzero(~beyond) == plan.terms_dual // 2
    W = ref.dual_vectors_half[beyond]
    if W.shape[0]:
        a = pot.dual_coeffs(eta, d, ref.dual_norms_half[beyond])
        phase = 2.0 * math.pi * (Q @ W.T)
        total += 2.0 * (np.cos(phase) @ a)
        grad -= 4.0 * math.pi * ((np.sin(phase) * a) @ W)
    return total, np.linalg.norm(grad, axis=1)


@pytest.mark.parametrize("name", ["Z1", "Z2", "Z3", "hex", "fcc-like"])
def test_tail_bounds_hold(name):
    # every plan's actual truncation error, of the value and of the
    # gradient, is within its reported bound, at random min-imaged
    # differences and at and next to a cell corner, where |q| is largest.
    # The error is measured against the same-eta plan at tol/1e3 (at the
    # rounding floor where that is lower) as the terms that plan adds, so
    # rounding in the terms both sums share does not enter.  The potentials
    # cover Gamma orders on both sides of 1 and below 0, E1 and the Gaussian.
    # The split families also take the rungs above 128 that only a plan
    # priced for a point count chooses, wherever the plan and its reference
    # are within the shell budget and above their rounding floor.
    lat = lattice_preset(name)
    d = lat.dimension
    rng = np.random.default_rng(17)
    corner = rng.choice([-0.5, 0.5], size=(2, d))
    f = np.vstack([rng.uniform(-0.5, 0.5, (6, d)), corner, corner * (1 - 1e-9)])
    Q = lat.to_cartesian(f)
    assert np.all(np.linalg.norm(Q, axis=1) <= lat.half_cell_diameter * (1 + 1e-15))
    high_rungs = kn._ETA_LADDER[kn._PAIR_RUNGS:]
    swept_high = 0
    for pot in _SWEEP_POTENTIALS:
        for eta in (0.25, 1.0, 4.0) + (high_rungs if pot.split else ()):
            for tol in (1e-6, 1e-10, 1e-12):
                ref_tol = max(tol / 1e3, kn._rounding_floor(lat, pot, eta))
                try:
                    plan = kn.plan_ewald(lat, pot, tol, eta)
                    ref = kn.plan_ewald(lat, pot, ref_tol, eta)
                except UnreachableTolerance:
                    assert eta in high_rungs, (pot.label, eta, tol)
                    continue
                swept_high += eta in high_rungs
                assert plan.direct_tail_bound <= tol / 2
                assert plan.dual_tail_bound <= tol / 2
                err, grad_err = _omitted_terms(plan, ref, Q)
                err = float(np.max(np.abs(err)))
                assert err + ref.guaranteed_abs_err <= plan.guaranteed_abs_err, (
                    pot.label, eta, tol, err)
                bound = plan.direct_grad_tail_bound + plan.dual_grad_tail_bound
                ref_bound = ref.direct_grad_tail_bound + ref.dual_grad_tail_bound
                assert math.isfinite(bound), (pot.label, eta, tol)
                grad_err = float(np.max(grad_err))
                assert grad_err + ref_bound <= bound, (pot.label, eta, tol, grad_err)
    assert swept_high > 0


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("pot", _SWEEP_POTENTIALS + (kn.Riesz(2.5),
                                                     kn.LogRiesz(1.7)),
                         ids=lambda p: p.label)
def test_majorants_bound_terms(pot, d):
    # A rho^p exp(-alpha rho^2), taken at a radius r0, is at least |term|
    # from direct_terms / dual_coeffs at every rho >= r0 on a dense grid,
    # while exp(-alpha rho^2) is a normal float.  At sigma = 1 the bound is
    # attained, so the sides may differ by the rounding of exp(-x), about
    # x ulps.
    def check(majorant, values, r0):
        a, p, alpha = majorant
        rho = np.linspace(r0, r0 + 6.0, 400)
        x = alpha * rho**2
        rho, x = rho[x < 700.0], x[x < 700.0]
        bound = a * rho**p * np.exp(-x) * (1.0 + 4.0 * np.finfo(float).eps * (1.0 + x))
        assert np.all(np.abs(values(rho)) <= bound), r0

    # only the Gaussian has no reciprocal side, and so no dual majorant.
    # The gradient majorants bound |g'(r)| = |radial| r of a direct term
    # and 2 pi k |a(k)| of a dual coefficient
    assert pot.split == (not isinstance(pot, kn.Gaussian))
    for eta in (0.25, 1.0, 4.0):
        for r0 in (0.6, 1.0, 1.7, 3.0):
            check(pot.direct_majorant(eta, r0),
                  lambda r: pot.direct_terms(eta, r)[0], r0)
            check(pot.direct_grad_majorant(eta, r0),
                  lambda r: r * pot.direct_terms(eta, r, want_grad=True)[1], r0)
            if pot.split:
                check(pot.dual_majorant(eta, d, r0),
                      lambda k: pot.dual_coeffs(eta, d, k), r0)
                check(pot.dual_grad_majorant(eta, d, r0),
                      lambda k: 2.0 * math.pi * k * pot.dual_coeffs(eta, d, k), r0)


def test_tail_bound_against_brute_force_count():
    # the counting bound against exact tails of a lattice sum of the
    # majorant itself, so only the counting and the Gamma inequalities are
    # loose; radii below and above the cell's circumradius.  The rising
    # majorant rho exp(-rho^2) (the Gaussian gradient's form) is bounded
    # only from radius 1/sqrt(2), where it starts to decrease
    for name in ("Z1", "Z2", "hex", "fcc-like"):
        lat = lattice_preset(name)
        d, cell = lat.dimension, lat.half_cell_diameter
        vecs = enumerate_shells(lat, "direct", 12.0)
        for f in (np.full(d, 0.5), np.full(d, 0.1)):
            rho = np.linalg.norm(lat.to_cartesian(f) + vecs, axis=1)
            for a, p, alpha in ((1.0, 0.0, 1.0), (0.3, -2.0, 0.5),
                                (2.0, 1.0, 1.0)):
                for radius in (0.2, 0.5, 0.75, 1.0, 2.0, 3.0):
                    keep = rho > radius
                    exact = float(np.sum(a * rho[keep] ** p
                                         * np.exp(-alpha * rho[keep] ** 2)))
                    bound = kn._tail_bound((a, p, alpha), radius, cell, d)
                    assert exact <= bound, (name, radius, p)
                    if p > 0 and radius < 0.75:
                        assert bound == math.inf


@pytest.mark.parametrize("name", ["Z2", "hex", "fcc-like"])
def test_plan_bounds_recompute_from_fields(name):
    # the recorded bounds are the closed forms at the plan's cutoffs, the
    # direct one counted with the lattice's cell and the dual one with the
    # dual lattice's, and each covers the sum of its majorant over the
    # vectors the plan leaves out (the direct one at a cell corner).  The
    # gradient bounds are taken at the same cutoffs and stay out of the
    # plan's JSON
    lat = lattice_preset(name)
    d = lat.dimension
    q = lat.to_cartesian(np.full(d, 0.5))
    vecs = enumerate_shells(lat, "direct", 15.0)
    duals = np.linalg.norm(enumerate_shells(lat, "dual", 15.0), axis=1)
    for pot, eta in ((kn.Riesz(1.0), 1.0), (kn.Log(), 4.0), (kn.LogRiesz(0.5), 0.25)):
        plan = kn.plan_ewald(lat, pot, 1e-6, eta)
        direct = pot.direct_majorant(eta, plan.r_cut)
        dual = pot.dual_majorant(eta, d, plan.k_cut)
        assert plan.direct_tail_bound == kn._tail_bound(
            direct, plan.r_cut, lat.half_cell_diameter, d)
        assert plan.dual_tail_bound == kn._tail_bound(
            dual, plan.k_cut, lat.dual_half_cell_diameter, d)
        assert plan.direct_grad_tail_bound == kn._tail_bound(
            pot.direct_grad_majorant(eta, plan.r_cut), plan.r_cut,
            lat.half_cell_diameter, d)
        assert plan.dual_grad_tail_bound == kn._tail_bound(
            pot.dual_grad_majorant(eta, d, plan.k_cut), plan.k_cut,
            lat.dual_half_cell_diameter, d)
        assert not any("grad" in key for key in plan.to_json_dict())
        for (a, p, alpha), rho, radius, bound in (
                (direct, np.linalg.norm(q + vecs, axis=1), plan.r_cut,
                 plan.direct_tail_bound),
                (dual, duals, plan.k_cut, plan.dual_tail_bound)):
            out = rho[rho > radius]
            assert float(np.sum(a * out**p * np.exp(-alpha * out**2))) <= bound


# the kernel-eval potentials of the benchmark's checks grid
_CHECKS_POTENTIALS = ("riesz:0.5", "riesz:1", "riesz:2.5", "logriesz:0.5",
                      "logriesz:1.7", "log", "gaussian:0.5", "gaussian:2")
_PLAN_FLOATS = ("eta", "r_cut", "k_cut", "direct_tail_bound", "dual_tail_bound",
                "direct_grad_tail_bound", "dual_grad_tail_bound", "eta_constant")
_PLAN_ARRAYS = ("direct_vectors", "dual_vectors_half", "dual_norms_half",
                "dual_coeffs_half")


def _plan_bytes(plan):
    return ([np.float64(getattr(plan, f)).tobytes() for f in _PLAN_FLOATS]
            + [getattr(plan, f).tobytes() for f in _PLAN_ARRAYS])


@pytest.mark.parametrize("name", ["Z1", "Z2", "Z3", "hex", "fcc-like"])
def test_chosen_eta_plan_equals_the_plan_at_that_eta(name, monkeypatch):
    # without eta, each cutoff's final bisection resumes from the bracket
    # the eta ladder's 1e-2 bisection left at the chosen eta, a state of
    # every finer bisection: the plan equals the one built at that eta,
    # field by field and bitwise, per pair and priced for 32 or 500 points
    resumed = []
    cutoff = kn._cutoff

    def spy(*args, **kwargs):
        resumed.append(args[-1] is not None)
        return cutoff(*args, **kwargs)

    monkeypatch.setattr(kn, "_cutoff", spy)
    lat = lattice_preset(name)
    for text in _CHECKS_POTENTIALS:
        pot = kn.parse_potential(text)
        for tol in (1e-6, 1e-10, 1e-12):
            for n_points in (None, 32, 500):
                resumed.clear()
                plan = kn.plan_ewald(lat, pot, tol, n_points=n_points)
                # the plan's two cutoffs are the last two bisections, and
                # they resume (the Gaussian plans at eta = 1, no ladder)
                assert resumed[-2:] == [pot.split] * (2 if pot.split else 1)
                fixed = kn.plan_ewald(lat, pot, tol, plan.eta)
                assert _plan_bytes(plan) == _plan_bytes(fixed), (text, tol, n_points)


def test_logriesz_term_is_inf_where_its_parts_overflow():
    # r^-300 passes the double range at r = 1e-3 and the parts of the term
    # take inf - inf; the term, positive below r = 1, is +inf there
    pot = kn.LogRiesz(300.0)
    r = np.array([1e-3, 0.05, 0.5, 0.9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, _ = pot.direct_terms(1.0, r)
    assert t[0] == math.inf and t[1] == math.inf
    assert np.all(np.isfinite(t[2:])) and np.all(t[2:] > 0.0)
    values, _, _ = kn.evaluate_batch(Z1, pot, kn.plan_ewald(Z1, pot, 1e-10),
                                     np.array([[1e-3], [0.3]]))
    assert values[0] == math.inf and math.isfinite(values[1])


def test_plan_rejects_out_of_domain_parameters():
    for tol in (0.0, -1e-10, math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            kn.plan_ewald(Z2, kn.Riesz(1.0), tol)
    for eta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            kn.plan_ewald(Z2, kn.Riesz(1.0), 1e-10, eta=eta)
    # still a ValueError for existing callers
    with pytest.raises(ValueError):
        kn.plan_ewald(Z2, kn.Riesz(1.0), 0.0)


def test_plan_rejects_tol_below_rounding_floor():
    floor = kn._rounding_floor(Z2, kn.Riesz(1.0), 1.0)
    assert 1e-17 < floor < 1e-15
    with pytest.raises(UnreachableTolerance, match="rounding floor"):
        kn.plan_ewald(Z2, kn.Riesz(1.0), 1e-17)
    assert kn.plan_ewald(Z2, kn.Riesz(1.0), floor).tol == floor
    # the splitting constant counts: at eta = 1/4 the Log constant is -9.4
    with pytest.raises(UnreachableTolerance, match="rounding floor"):
        kn.plan_ewald(Z2, kn.Log(), 1e-15, eta=0.25)


def test_plan_refuses_skewed_basis_box():
    # the unimodular shear [[1, 3000], [0, 1]] is Z2 again, but its cell
    # reaches |v| = 1500, so the direct shell walk's integer box would hold
    # about 3e10 points; the walk refuses it instead of allocating it
    sheared = lattice_from_basis([[1.0, 3000.0], [0.0, 1.0]])
    with pytest.raises(InvalidParameter, match="2e7"):
        kn.plan_ewald(sheared, kn.Riesz(1.0), 1e-10)


def test_plan_budget_checked_before_enumeration(monkeypatch):
    # a splitting parameter far from 1 puts the dual (large eta) or the
    # direct (small eta) cutoff beyond the shell budget; the planner must
    # say so without enumerating the vectors
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated past the budget")

    monkeypatch.setattr(kn, "enumerate_shells", no_enumeration)
    with pytest.raises(UnreachableTolerance, match="dual cutoff"):
        kn.plan_ewald(Z3, kn.Riesz(1.0), 1e-10, eta=1e6)
    monkeypatch.setattr(kn, "_SHELL_BUDGET", 1000)
    with pytest.raises(UnreachableTolerance, match="direct cutoff"):
        kn.plan_ewald(Z3, kn.Riesz(1.0), 1e-6, eta=0.01)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("pot", [
    kn.Riesz(0.5), kn.Riesz(1.0), kn.Riesz(3.0), kn.Riesz(4.5),
    kn.LogRiesz(0.5), kn.LogRiesz(1.0), kn.LogRiesz(1.7), kn.Log(),
    kn.Gaussian(0.5),
], ids=lambda p: p.label)
def test_envelopes_match_array_formulas(pot, d):
    # the term formulas take one float (as the planner's rounding floor
    # calls them) and give what they give an array element at the same
    # point.  Dual orders (d - s)/2 here cover sigma > 0, the erfc branch,
    # sigma = 0, integer and fractional sigma < 0, and the log-Riesz pair on
    # both sides of 0.
    eta = 2.0
    for r in np.linspace(0.05, 12.0, 48):
        ref = abs(float(pot.direct_terms(eta, np.array([r]))[0][0]))
        assert abs(float(pot.direct_terms(eta, float(r))[0])) == pytest.approx(
            ref, rel=1e-15, abs=0.0), r
    if isinstance(pot, kn.Gaussian):
        assert not pot.split
        return
    for k in np.linspace(0.1, 6.0, 48):
        ref = abs(float(pot.dual_coeffs(eta, d, np.array([k]))[0]))
        assert abs(float(pot.dual_coeffs(eta, d, float(k)))) == pytest.approx(
            ref, rel=1e-15, abs=0.0), k


def _exact_terms(pot, eta, d, r, k):
    """mpmath (30 digits) direct term at r and dual coefficient at k, with
    the Riesz term and coefficient of the same exponent; the log-Riesz ones
    are 2 d/ds of those."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mpf

    def riesz(s):
        direct = (mpmath.gammainc(s / 2, eta * mp(r) ** 2) * mp(r) ** -s
                  / mpmath.gamma(s / 2))
        dual = (mpmath.pi ** (mp(d) / 2) * (mpmath.pi * k) ** (s - d)
                * mpmath.gammainc((d - s) / 2, mpmath.pi**2 * mp(k) ** 2 / eta)
                / mpmath.gamma(s / 2))
        return direct, dual

    with mpmath.workdps(30):
        if isinstance(pot, kn.Riesz):
            return riesz(mp(pot.s)), None
        if isinstance(pot, kn.LogRiesz):
            s = mp(pot.s)
            both = tuple(float(2 * mpmath.diff(lambda u: riesz(u)[i], s))
                         for i in (0, 1))
            return both, tuple(float(v) for v in riesz(s))
        if isinstance(pot, kn.Log):
            return (mpmath.e1(eta * mp(r) ** 2),
                    mpmath.gammainc(mp(d) / 2, mpmath.pi**2 * mp(k) ** 2 / eta)
                    / (mpmath.pi ** (mp(d) / 2) * mp(k) ** d)), None
        return (mpmath.exp(-pot.c * mp(r) ** 2), None), None


@pytest.mark.parametrize("pot", [kn.Riesz(0.5), kn.Riesz(3.0), kn.LogRiesz(0.5),
                                 kn.LogRiesz(1.7), kn.LogRiesz(3.0), kn.Log(),
                                 kn.Gaussian(2.0)], ids=lambda p: p.label)
def test_term_accuracy(pot):
    # each term and coefficient is within the family's rel_accuracy of
    # mpmath, the bound kernel_value puts on their rounding.  Terms beyond
    # x = 40 (relative size e^-40) are left out: there the rounding of x
    # itself moves e^-x by x eps.  A log-Riesz term is a difference of
    # Riesz-sized parts, so it is held to rel_accuracy of the larger of
    # itself and the Riesz term.  On a denser grid (24 r up to 8, 14 k up
    # to 4, d = 1, 2, 3) the worst were 1.1e-14 (Riesz 0.5), 8.2e-15
    # (log-Riesz 4), 1.1e-14 (log) and 6.2e-15 (Gaussian 2).
    worst = 0.0
    for eta in (0.25, 1.0, 4.0):
        for d, r, k in ((1, 0.3, 0.4), (2, 0.9, 1.1), (3, 1.7, 0.25),
                        (1, 2.6, 1.6), (2, 4.0, 0.7), (3, 5.5, 2.2)):
            (t, a), scale = _exact_terms(pot, eta, d, r, k)
            got = [(float(pot.direct_terms(eta, r)[0]), float(t), eta * r * r)]
            if pot.split:
                got.append((float(pot.dual_coeffs(eta, d, k)), float(a),
                            math.pi**2 * k * k / eta))
            for i, (v, exact, x) in enumerate(got):
                if x > 40.0:
                    continue
                size = max(abs(exact), abs(scale[i])) if scale else abs(exact)
                worst = max(worst, abs(v - exact) / size)
    assert worst <= pot.rel_accuracy, worst

import json
import math
from pathlib import Path

import numpy as np
import pytest

from perisum import kernel as kn
from perisum import specfun as sf
from perisum.errors import (
    DimensionMismatch,
    LatticePoint,
    PlanMismatch,
    PolePoint,
    UnreachableTolerance,
)
from perisum.lattice import enumerate_shells, lattice_preset

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
                                 kn.Gaussian(3.0)], ids=lambda p: p.label)
def test_label_round_trip(pot):
    assert kn.parse_potential(pot.label) == pot


def test_plan_cutoffs_and_self_refinement():
    plan = kn.plan_ewald(Z1, kn.Riesz(2.0), 1e-12)
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


def test_plan_unreachable_tolerance():
    with pytest.raises(UnreachableTolerance):
        kn.plan_ewald(Z2, kn.Riesz(0.5), 1e-12, shell_budget=10)


def test_plan_mismatch_raised():
    plan = kn.plan_ewald(Z1, kn.Riesz(2.0), 1e-10)
    q = np.array([[0.5]])
    with pytest.raises(PlanMismatch):
        kn.evaluate_batch(Z1, kn.Riesz(3.0), plan, q)
    with pytest.raises(PlanMismatch):
        kn.evaluate_batch(Z1, kn.Log(), plan, q)


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
    plan = kn.plan_ewald(Z1, kn.Riesz(s), 1e-13)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    vals = np.array([
        kn.epstein_hurwitz_zeta(Z1, np.array([q]), s, plan=plan)
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


def test_gaussian_theta_identity():
    # direct sum at the origin equals the dual-side Poisson sum
    c = math.pi
    kv = kn.gaussian_kernel(Z1, np.zeros(1), np.zeros(1), c, r_cut=8.0)
    n = np.arange(-10, 11, dtype=float)
    direct = float(np.exp(-c * n * n).sum())
    dual = (math.pi / c) ** 0.5 * float(np.exp(-math.pi**2 * n * n / c).sum())
    assert direct == pytest.approx(dual, abs=1e-15)
    assert kv.value == pytest.approx(direct, abs=1e-13)  # c >= 1: no constant


def test_gaussian_large_c_single_term():
    kv = kn.gaussian_kernel(Z1, np.zeros(1), np.zeros(1), 500.0, r_cut=6.0)
    assert kv.value == pytest.approx(1.0, abs=1e-12)
    assert kv.value >= 1.0


def test_gaussian_small_c_constant_branch():
    # c < 1 subtracts (pi/c)^(d/2); the remainder matches the dual-side
    # Poisson sum without its zero mode
    c = 0.4
    q = np.array([0.3])
    kv = kn.gaussian_kernel(Z1, q, np.zeros(1), c, r_cut=12.0)
    w = np.arange(1, 12, dtype=float)
    dual = (math.pi / c) ** 0.5 * 2.0 * float(
        np.sum(np.cos(2 * math.pi * w * 0.3) * np.exp(-math.pi**2 * w * w / c)))
    assert kv.value == pytest.approx(dual, abs=1e-12)


def test_poisson_identity_random():
    rng = np.random.default_rng(13)
    for omega in (0.5, 1.0, 4.0):
        x = rng.random(1)
        r = math.sqrt(46.0 / omega) + 1.0
        n = enumerate_shells(Z1, "direct", r).vectors
        lhs = float(np.exp(-omega * (x[0] + n[:, 0]) ** 2).sum())
        k = math.sqrt(46.0 * omega) / math.pi + 1.0
        w = enumerate_shells(Z1, "dual", k).vectors
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


# ---------------------------------------------------------------------------
# blocked single-pass evaluation
# ---------------------------------------------------------------------------


_FAMILIES = (kn.Riesz(0.8), kn.Riesz(1.0), kn.LogRiesz(1.3), kn.Log(),
             kn.Gaussian(0.7))


@pytest.mark.parametrize("pot", _FAMILIES, ids=lambda p: p.label)
@pytest.mark.parametrize("want_grad", (False, True))
def test_blocked_batch_matches_row_by_row(monkeypatch, pot, want_grad):
    plan = kn.plan_ewald(Z2, pot, 1e-10)
    rng = np.random.default_rng(21)
    Q = Z2.to_cartesian(rng.uniform(-0.5, 0.5, (13, 2)))
    Q[7] = 0.0  # a lattice point in the second block
    # five rows per block, so the 13 rows fall into blocks of 5, 5 and 3
    monkeypatch.setattr(kn, "_BLOCK_PAIR_IMAGES",
                        5 * max(plan.terms_direct, plan.terms_dual))
    values, grads, degenerate = kn.evaluate_batch(Z2, pot, plan, Q, want_grad)
    assert degenerate.tolist() == [i == 7 for i in range(13)]
    assert (values[7] == math.inf) == (not isinstance(pot, kn.Gaussian))
    for i in range(13):
        v, g, dg = kn.evaluate_batch(Z2, pot, plan, Q[i:i + 1], want_grad)
        assert dg[0] == degenerate[i]
        if math.isinf(v[0]):
            assert values[i] == v[0]
        else:
            assert abs(values[i] - v[0]) <= 1e-15 * abs(v[0])
        if want_grad:
            assert np.all(np.abs(grads[i] - g[0]) <= 1e-15 * np.abs(g[0]))
        else:
            assert grads is None and g is None
    if want_grad:
        assert np.array_equal(grads[7], np.zeros(2))


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
    # the dual coefficients reach the same branch through gamma_upper_vec,
    # directly at sigma = 1/2 and through the recurrence at sigma = -1/2
    assert np.array_equal(sf.gamma_upper_vec(0.5, x), q * math.gamma(0.5))
    emx = np.exp(-x)
    down = (q * math.gamma(0.5) - x**-0.5 * emx) / -0.5
    assert np.array_equal(sf.gamma_upper_vec(-0.5, x), down)


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


# ---------------------------------------------------------------------------
# planner envelopes on scalars
# ---------------------------------------------------------------------------


def test_plans_match_reference():
    # cutoffs, term counts and tail bounds written before the envelopes took
    # floats: the 240 kernel-eval plans of the benchmark's checks grid and
    # the validate shift-suite plans at s > d (Z1 s = 3, 4.5; Z2 s = 6.5, 8;
    # Z3 s = 9.5 at tol 1e-13), whose dual orders (d - s)/2 run the integer
    # and the fractional downward recurrence
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


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("pot", [
    kn.Riesz(0.5), kn.Riesz(1.0), kn.Riesz(3.0), kn.Riesz(4.5),
    kn.LogRiesz(0.5), kn.LogRiesz(1.0), kn.LogRiesz(1.7), kn.Log(),
    kn.Gaussian(0.5),
], ids=lambda p: p.label)
def test_envelopes_match_array_formulas(pot, d):
    # the planner's envelopes take one float per quadrature node; they must
    # give what the array formulas of evaluate_batch give at the same point.
    # Dual orders (d - s)/2 here cover sigma > 0, the erfc branch, sigma = 0
    # (E1), integer and fractional sigma < 0, and log-Riesz stencils that
    # straddle 0.
    eta = 2.0
    env, _ = kn._direct_envelope(pot, eta)
    terms = pot.direct_terms(eta)
    for r in np.linspace(0.05, 12.0, 48):
        ref = abs(float(terms(np.array([r]))[0][0]))
        assert env(float(r)) == pytest.approx(ref, rel=1e-15, abs=0.0), r
    env, _ = kn._dual_envelope(pot, eta, d)
    if isinstance(pot, kn.Gaussian):
        assert env is None
        return
    coeffs = pot.dual_coeffs(eta, d)
    for k in np.linspace(0.1, 6.0, 48):
        ref = abs(float(coeffs(np.array([k]))[0]))
        assert env(float(k)) == pytest.approx(ref, rel=1e-15, abs=0.0), k

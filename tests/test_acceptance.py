"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them inline).

Criteria 5b and 5c check the constant W = 2 pi^(d/2) / (Gamma(s/2)(d - s))
of the N^2 growth of the minimal periodic Riesz s-energy, s < d.  At the N
the growth runs reach, E/N^2 is still far from W, so the tests compare W
with the N -> infinity value of the form

    E/N^2 = a + b N^(s/d - 1) + c / N

solved through the three ratios the runs compute.  The N^(s/d - 1) order is
the paper's next-order term, of order N^(1 + s/d) in E.  The 1/N order is
what the exact 1-D law E = N(N-1) W + 2 zeta(s) (N^(1+s) - N) adds beyond
it: the missing diagonal, -W N, and the unit-scale lattice zeta, -2 zeta(s) N.
In d = 1 the form is therefore exact, with a = W and b = 2 zeta(s).  In
d = 2 it is exact for points on scaled copies of one lattice, with b that
lattice's Epstein zeta at unit covolume.  Criterion 5b asserts |a - W| / W <= 2% in d = 1,
and that the fit recovers W and 2 zeta(1/2) from the exact law itself;
criterion 5c asserts |a - W| / W <= 10% in d = 2 and prints b next to the
hexagonal and square Epstein zetas.
"""

import math
import time

import numpy as np
import pytest

from perisum import energy as en
from perisum import kernel as kn
from perisum import specfun as sf
from perisum import validate as vd
from perisum.lattice import lattice_preset

Z1 = lattice_preset("Z1")
Z2 = lattice_preset("Z2")
Z3 = lattice_preset("Z3")
HEX = lattice_preset("hex")

LATS = {1: Z1, 2: Z2, 3: Z3}


def _report(tag, ok, detail=""):
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{tag}: {detail}"


# -- criterion 1: exact 1-D Riesz law ---------------------------------------


def test_criterion_1_riesz_exact_law():
    t0 = time.monotonic()
    worst = 0.0
    for s in (0.5, 1.0, 2.0, 3.0):
        pot = kn.Riesz(s)
        plan = kn.plan_ewald(Z1, pot, 1e-12)
        for n in range(2, 33):
            cfg = en.Configuration.equally_spaced(Z1, n)
            e = en.total_energy(cfg, pot, plan).energy
            law = vd.riesz_1d_minimum(n, s)
            worst = max(worst, abs(e - law) / abs(law))
    elapsed = time.monotonic() - t0
    _report("criterion 1 (Riesz 1-D law)",
            worst <= 1e-9 and elapsed < 10.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# -- criterion 2: exact 1-D logarithmic law ----------------------------------


def test_criterion_2_log_exact_law():
    pot = kn.Log()
    plan = kn.plan_ewald(Z1, pot, 1e-12)
    worst = 0.0
    for n in range(2, 33):
        cfg = en.Configuration.equally_spaced(Z1, n)
        e = en.total_energy(cfg, pot, plan).energy
        law = vd.log_1d_minimum(n)
        worst = max(worst, abs(e - law) / abs(law))
    _report("criterion 2 (logarithmic 1-D law)", worst <= 1e-9,
            f"worst rel err {worst:.2e}")


# -- criterion 3: 1-D log-Riesz law ------------------------------------------


def test_criterion_3_logriesz_law():
    worst = 0.0
    for s in (0.5, 2.0):
        pot = kn.LogRiesz(s)
        plan = kn.plan_ewald(Z1, pot, 1e-12)
        for n in range(2, 17):
            cfg = en.Configuration.equally_spaced(Z1, n)
            e = en.total_energy(cfg, pot, plan).energy
            law = vd.logriesz_1d_minimum(n, s)
            worst = max(worst, abs(e - law) / abs(law))
    triple_ok = True
    details = []
    for n in (2, 8, 16):
        r = vd.check_logriesz_1d(n, 1.0)
        flagged = "FLAGGED" in r.note
        triple_ok &= r.passed or flagged
        details.append(f"N={n} gaps<=1e-5: {r.passed}")
    _report("criterion 3 (log-Riesz 1-D law)",
            worst <= 1e-7 and triple_ok,
            f"worst rel err {worst:.2e}; s=1 triple: {'; '.join(details)}")


# -- criterion 4: optimizer recovers equal spacing ----------------------------


def test_criterion_4_optimizer_recovers_equal_spacing():
    seeds = (11, 22, 33, 44, 55)
    worst_gap = 0.0
    worst_energy = 0.0
    for s in (0.5, 1.0, 2.0):
        for n in (3, 4, 5, 8):
            law = vd.riesz_1d_minimum(n, s)
            for seed in seeds:
                res = en.minimize(Z1, kn.Riesz(s), n, restarts=3, seed=seed,
                                  max_iters=800)
                pts = np.sort(res.best_config.points[:, 0])
                gaps = np.diff(np.concatenate([pts, [pts[0] + 1.0]]))
                worst_gap = max(worst_gap, float(np.max(np.abs(gaps - 1.0 / n))))
                worst_energy = max(worst_energy,
                                   abs(res.best_energy - law) / abs(law))
    _report("criterion 4 (optimizer equal spacing)",
            worst_gap <= 1e-5 and worst_energy <= 1e-8,
            f"worst gap dev {worst_gap:.2e}, worst energy rel {worst_energy:.2e}")


# -- criterion 5: N^2 asymptotic constants ------------------------------------


@pytest.fixture(scope="module")
def growth_runs():
    t0 = time.monotonic()
    d1 = {}
    for n in (16, 32, 64):
        res = en.minimize(Z1, kn.Riesz(0.5), n, restarts=2, seed=0,
                          max_iters=3000)
        d1[n] = res.best_energy / n**2
    d2 = {}
    for n in (9, 16, 25):
        res = en.minimize(Z2, kn.Riesz(1.0), n, restarts=2, seed=0,
                          max_iters=2500)
        d2[n] = res.best_energy / n**2
    return d1, d2, time.monotonic() - t0


def test_criterion_5a_monotone_approach(growth_runs):
    d1, _, elapsed = growth_runs
    limit = 4.0 * math.sqrt(math.pi) / math.gamma(0.25)
    gaps = [abs(d1[n] - limit) for n in (16, 32, 64)]
    _report("criterion 5a (d=1 monotone approach, runtime)",
            gaps[0] > gaps[1] > gaps[2] and elapsed < 120.0,
            f"E/N^2 = {d1[16]:.4f}, {d1[32]:.4f}, {d1[64]:.4f} -> "
            f"{limit:.4f}; {elapsed:.0f}s")


def _growth_fit(ratios, s, d):
    """(a, b, c) of E/N^2 = a + b N^(s/d - 1) + c / N through three
    {N: E/N^2} entries."""
    ns = sorted(ratios)
    rows = [[1.0, n ** (s / d - 1.0), 1.0 / n] for n in ns]
    return np.linalg.solve(np.array(rows), np.array([ratios[n] for n in ns]))


def test_criterion_5b_d1_within_2_percent(growth_runs):
    d1, _, _ = growth_runs
    limit = 4.0 * math.sqrt(math.pi) / math.gamma(0.25)
    two_zeta = 2.0 * sf.riemann_zeta(0.5)
    # on the exact law the fit has no truncation error, so a gap in a below
    # comes from the minimized energies, not from the estimator
    law = {n: vd.riesz_1d_minimum(n, 0.5) / n**2 for n in d1}
    a_law, b_law, _ = _growth_fit(law, 0.5, 1)
    law_a_rel = abs(a_law - limit) / limit
    law_b_rel = abs(b_law - two_zeta) / abs(two_zeta)
    a, b, _ = _growth_fit(d1, 0.5, 1)
    rel = abs(a - limit) / limit
    _report("criterion 5b (d=1 N^2 constant within 2%, fit at N=16,32,64)",
            rel <= 0.02 and law_a_rel <= 1e-12 and law_b_rel <= 1e-12,
            f"E/N^2 = {d1[16]:.6f}, {d1[32]:.6f}, {d1[64]:.6f}; "
            f"a = {a:.6f} vs limit {limit:.6f}: off by {rel:.2%}; "
            f"b = {b:.6f} vs 2 zeta(1/2) = {two_zeta:.6f}; "
            f"fit of the exact law: a off {law_a_rel:.1e}, b off {law_b_rel:.1e}")


def test_criterion_5c_d2_within_10_percent(growth_runs):
    _, d2, _ = growth_runs
    limit = 2.0 * math.sqrt(math.pi)
    a, b, _ = _growth_fit(d2, 1.0, 2)
    rel = abs(a - limit) / limit
    # b is printed, not asserted: the hexagonal lattice does not fit the
    # square torus, and the minimizers lie below the square grid at each N
    _report("criterion 5c (d=2 N^2 constant within 10%, fit at N=9,16,25)",
            rel <= 0.10,
            f"E/N^2 = {d2[9]:.4f}, {d2[16]:.4f}, {d2[25]:.4f}; "
            f"a = {a:.4f} vs limit {limit:.4f}: off by {rel:.2%}; "
            f"b = {b:.4f} (Epstein zeta(1): hex {kn.epstein_zeta(HEX, 1.0):.4f}, "
            f"Z2 {kn.epstein_zeta(Z2, 1.0):.4f})")


# -- criterion 6: Poisson summation -------------------------------------------


def test_criterion_6_poisson_random():
    rng = np.random.default_rng(606)
    lats = (Z1, Z2, HEX)
    worst = 0.0
    for i in range(50):
        lat = lats[i % 3]
        x = lat.to_cartesian(rng.random(lat.dimension))
        omega = float(rng.uniform(0.3, 10.0))
        r = vd.check_poisson(lat, x, omega)
        worst = max(worst, r.abs_err)
    _report("criterion 6 (Poisson summation)", worst <= 1e-12,
            f"worst abs err {worst:.2e} over 50 cases")


# -- criterion 7: constant-shift law ------------------------------------------


def test_criterion_7_constant_shift():
    rng = np.random.default_rng(707)
    combos = [(1, 3.0), (1, 3.7), (1, 4.4), (1, 5.2),
              (2, 6.5), (2, 7.2), (2, 8.0),
              (3, 9.5), (3, 10.3), (3, 11.0)]
    worst_rel = 0.0
    worst_q_dep = 0.0
    for d, s in combos:
        lat = LATS[d]
        plan = kn.plan_ewald(lat, kn.Riesz(s), 1e-13)
        shifts = []
        for _ in range(2):
            q = lat.to_cartesian(rng.uniform(0.15, 0.85, d))
            bf = vd.brute_force_epstein_hurwitz(lat, q, s)
            kv = kn.kernel_value(plan, q, np.zeros(d))
            shifts.append(bf - kv.value)
        const = vd.shift_constant(s, d)
        for sh in shifts:
            worst_rel = max(worst_rel, abs(sh - const) / const)
        worst_q_dep = max(worst_q_dep, abs(shifts[0] - shifts[1]))
    _report("criterion 7 (constant-shift law)",
            worst_rel <= 1e-9 and worst_q_dep <= 1e-10,
            f"20 cases: worst rel {worst_rel:.2e}, "
            f"worst q-dependence {worst_q_dep:.2e}")


# -- criterion 8: splitting-parameter invariance -------------------------------


def test_criterion_8_eta_invariance():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(30):
        d = int(rng.integers(1, 4))
        lat = LATS[d]
        s = float(rng.uniform(0.4, 2.6))
        q = lat.to_cartesian(rng.uniform(0.1, 0.9, d))
        vals = []
        for eta in (0.5, 1.0, 2.0):
            plan = kn.plan_ewald(lat, kn.Riesz(s), 1e-12, eta=eta)
            vals.append(kn.kernel_value(plan, q, np.zeros(d)).value)
        worst = max(worst, max(vals) - min(vals))
    _report("criterion 8 (eta invariance)", worst <= 1e-10,
            f"worst spread {worst:.2e} over 30 cases")


# -- criterion 9: gradient correctness -----------------------------------------


def test_criterion_9_gradients():
    rng = np.random.default_rng(909)
    plans = {}
    worst = 0.0
    checked = 0
    for case in range(50):
        d = 1 + case % 2
        lat = LATS[d]
        kind = case % 4
        if kind == 0:
            pot = kn.Riesz(float(rng.uniform(0.4, 2.5)))
        elif kind == 1:
            pot = kn.LogRiesz(float(rng.uniform(0.4, 2.5)))
        elif kind == 2:
            pot = kn.Log()
        else:
            pot = kn.Gaussian(float(rng.uniform(0.3, 3.0)))
        key = (d, pot)
        if key not in plans:
            plans[key] = kn.plan_ewald(lat, pot, 1e-12)
        plan = plans[key]
        n = int(rng.integers(2, 9))
        cfg = en.Configuration.random(lat, n, rng)
        cfg = en.Configuration(lat, en._jitter_degenerate(lat, cfg.points, rng))
        g = en.total_energy(cfg, pot, plan, with_gradient=True).gradient
        h = 1e-6
        eps = float(np.finfo(float).eps)

        def energy_at(pts):
            return en.total_energy(en.Configuration(lat, pts), pot, plan).energy

        # measure this instrument's noise floor along uniform translations,
        # where the exact derivative vanishes so the difference is pure
        # rounding noise of the summed kernel terms
        noise = 0.0
        for mu in range(d):
            shift = np.zeros((1, d))
            shift[0, mu] = h
            noise = max(noise, abs(energy_at(cfg.points + shift)
                                   - energy_at(cfg.points - shift)) / (2.0 * h))
        e0 = energy_at(cfg.points)
        floor = 100.0 * max(noise, eps * (1.0 + abs(e0)) / (2.0 * h))

        for i in range(n):
            for mu in range(d):
                plus = cfg.points.copy()
                minus = cfg.points.copy()
                plus[i, mu] += h
                minus[i, mu] -= h
                fd = (energy_at(plus) - energy_at(minus)) / (2.0 * h)
                if abs(g[i, mu]) > 1e-8:
                    err = abs(fd - g[i, mu])
                    if err > floor:
                        worst = max(worst, err / abs(g[i, mu]))
                    checked += 1
    _report("criterion 9 (gradient vs finite differences)", worst <= 1e-6,
            f"worst rel {worst:.2e} over {checked} components, 50 configs")


# -- criterion 10: special-function suite ---------------------------------------


def test_criterion_10_specfun_randomized():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1010)

    worst_h = 0.0
    count = 0
    while count < 1000:
        s = float(rng.uniform(-2.0, 60.0))
        if abs(s - 1.0) < 1e-3:
            continue
        q = float(rng.uniform(1e-2, 2.0))
        lhs = sf.hurwitz_zeta(s, q)
        shifted = sf.hurwitz_zeta(s, q + 1.0)
        scale = max(abs(lhs), abs(shifted), q ** (-s))
        worst_h = max(worst_h, abs(lhs - (q ** (-s) + shifted)) / scale)
        count += 1

    worst_m = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        s = float(rng.uniform(0.2, 6.0))
        if abs(s - 1.0) < 1e-3:
            continue
        lhs = sum(sf.hurwitz_zeta(s, j / n) for j in range(1, n + 1))
        rhs = n**s * sf.riemann_zeta(s)
        worst_m = max(worst_m, abs(lhs - rhs) / abs(rhs))

    worst_g = 0.0
    for _ in range(1000):
        sigma = float(rng.uniform(-3.0, 30.0))
        x = float(rng.uniform(1e-3, 50.0))
        lhs = sf.gamma_upper_vec(sigma + 1.0, x)
        rhs = sigma * sf.gamma_upper_vec(sigma, x) + x**sigma * math.exp(-x)
        worst_g = max(worst_g, abs(lhs - rhs) / abs(lhs))

    worst_e = 0.0
    for _ in range(1000):
        x = float(rng.uniform(1e-3, 30.0))
        with mpmath.workdps(30):
            exact = float(mpmath.e1(x))
        worst_e = max(worst_e, abs(sf.exp_integral_e1(x) - exact),
                      abs(sf.gamma_upper_vec(0.0, x) - exact))

    ok = (worst_h <= 1e-11 and worst_m <= 1e-10 and worst_g <= 1e-11
          and worst_e <= 1e-12)
    _report("criterion 10 (special functions, 1000 cases each)", ok,
            f"hurwitz {worst_h:.2e}, multiplication {worst_m:.2e}, "
            f"gamma {worst_g:.2e}, E1 {worst_e:.2e}")


# -- criterion 11: convergence-factor oracle -------------------------------------


def test_criterion_11_convergence_factor():
    ok = True
    details = []
    for s in (0.5, 3.0):
        plan = kn.plan_ewald(Z1, kn.Riesz(s), 1e-13)
        ref = kn.kernel_value(plan, np.array([0.3]), np.zeros(1)).value
        vals = kn.convergence_factor_oracle(Z1, np.array([0.3]), s,
                                            [0.2, 0.1, 0.05])
        gaps = [abs(v - ref) for v in vals]
        monotone = gaps[0] > gaps[1] > gaps[2]
        close = gaps[2] <= 1e-3 or gaps[2] / abs(ref) <= 1e-3
        ok &= monotone and close
        details.append(f"s={s}: gaps {gaps[0]:.2e}>{gaps[1]:.2e}>{gaps[2]:.2e}"
                       f" (ref {ref:.3f})")
    _report("criterion 11 (convergence-factor oracle)", ok,
            "; ".join(details))

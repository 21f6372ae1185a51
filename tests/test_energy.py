import json
import math
from pathlib import Path

import numpy as np
import pytest

from perisum import energy as en
from perisum import kernel as kn
from perisum import validate as vd
from perisum.errors import DegenerateConfiguration, InvalidN
from perisum.lattice import lattice_preset

Z1 = lattice_preset("Z1")
Z2 = lattice_preset("Z2")


def _plan(lat, pot, tol=1e-12):
    return kn.plan_ewald(lat, pot, tol)


def test_single_point_energy_zero():
    cfg = en.Configuration(Z2, np.array([[0.3, 0.4]]))
    rep = en.total_energy(cfg, kn.Riesz(1.0), _plan(Z2, kn.Riesz(1.0)),
                          with_gradient=True)
    assert rep.energy == 0.0
    assert np.array_equal(rep.gradient, np.zeros((1, 2)))


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_configuration_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="finite"):
        en.Configuration(Z2, np.array([[0.1, 0.2], [bad, 0.5], [0.3, 0.9]]))
    with pytest.raises(ValueError, match="finite"):
        en.Configuration(Z1, np.array([[0.25], [bad]]))


def test_two_point_energy_closed_form():
    pot = kn.Riesz(2.0)
    cfg = en.Configuration.equally_spaced(Z1, 2)
    rep = en.total_energy(cfg, pot, _plan(Z1, pot))
    expect = 2.0 * math.pi**2 - 4.0 * math.sqrt(math.pi)
    assert rep.energy == pytest.approx(expect, rel=1e-12)
    assert rep.energy == pytest.approx(vd.riesz_1d_minimum(2, 2.0), rel=1e-12)


def test_duplicate_points_infinite():
    pot = kn.Riesz(1.0)
    cfg = en.Configuration(Z2, np.array([[0.1, 0.1], [0.1, 0.1], [0.5, 0.9]]))
    rep = en.total_energy(cfg, pot, _plan(Z2, pot))
    assert rep.energy == math.inf
    assert rep.degenerate_pairs == [(0, 1)]
    with pytest.raises(DegenerateConfiguration):
        en.energy_gradient(cfg, pot, _plan(Z2, pot))


def test_gaussian_energy_finite_with_duplicates():
    pot = kn.Gaussian(2.0)
    cfg = en.Configuration(Z1, np.array([[0.2], [0.2]]))
    rep = en.total_energy(cfg, pot, _plan(Z1, pot))
    assert math.isfinite(rep.energy)


def test_classical_vs_renormalized_gaussian_shift():
    # for an absolutely summable potential the renormalized energy equals
    # the classical periodic sum minus a constant times N(N-1)
    pot = kn.Gaussian(0.5)
    plan = _plan(Z1, pot)
    rng = np.random.default_rng(2)
    const = (math.pi / 0.5) ** 0.5
    for n in (2, 4):
        cfg = en.Configuration.random(Z1, n, rng)
        rep = en.total_energy(cfg, pot, plan)
        # classical double sum over images, brute force
        m = np.arange(-12, 13, dtype=float)
        classical = 0.0
        for j in range(n):
            for k in range(n):
                if j == k:
                    continue
                dq = cfg.points[j, 0] - cfg.points[k, 0]
                classical += float(np.exp(-0.5 * (dq + m) ** 2).sum())
        assert rep.energy == pytest.approx(classical - n * (n - 1) * const,
                                           abs=1e-10)


def test_gradient_zero_at_equally_spaced():
    for s in (0.5, 2.0):
        pot = kn.Riesz(s)
        cfg = en.Configuration.equally_spaced(Z1, 6)
        g = en.energy_gradient(cfg, pot, _plan(Z1, pot))
        assert np.max(np.abs(g)) < 1e-9


def test_gradient_antisymmetric_pair():
    pot = kn.Riesz(1.0)
    cfg = en.Configuration(Z2, np.array([[0.0, 0.0], [0.45, 0.55]]))
    g = en.energy_gradient(cfg, pot, _plan(Z2, pot))
    assert np.allclose(g[0], -g[1], atol=1e-12)


def test_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(4)
    pot = kn.Riesz(1.3)
    plan = _plan(Z2, pot)
    for _ in range(5):
        cfg = en.Configuration.random(Z2, 6, rng)
        g = en.energy_gradient(cfg, pot, plan)
        assert np.max(np.abs(g.sum(axis=0))) <= 1e-9


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    pot = kn.Riesz(1.0)
    plan = _plan(Z2, pot)
    cfg = en.Configuration.random(Z2, 5, rng)
    g = en.energy_gradient(cfg, pot, plan)
    h = 1e-6
    for i in range(5):
        for mu in range(2):
            plus = cfg.points.copy()
            minus = cfg.points.copy()
            plus[i, mu] += h
            minus[i, mu] -= h
            ep = en.total_energy(en.Configuration(Z2, plus), pot, plan).energy
            em = en.total_energy(en.Configuration(Z2, minus), pot, plan).energy
            fd = (ep - em) / (2 * h)
            if abs(g[i, mu]) > 1e-8:
                assert fd == pytest.approx(g[i, mu], rel=1e-6)


def test_translation_invariance():
    rng = np.random.default_rng(12)
    pot = kn.Riesz(0.7)
    plan = _plan(Z2, pot)
    cfg = en.Configuration.random(Z2, 5, rng)
    e0 = en.total_energy(cfg, pot, plan).energy
    for _ in range(5):
        t = rng.random(2)
        e1 = en.total_energy(cfg.translated(t), pot, plan).energy
        assert abs(e1 - e0) <= 1e-11 * abs(e0)


def test_permutation_invariance_exact():
    rng = np.random.default_rng(14)
    pot = kn.Log()
    plan = _plan(Z2, pot)
    pts = rng.random((6, 2))
    e0 = en.total_energy(en.Configuration(Z2, pts), pot, plan).energy
    perm = rng.permutation(6)
    e1 = en.total_energy(en.Configuration(Z2, pts[perm]), pot, plan).energy
    assert e0 == pytest.approx(e1, rel=1e-14)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def test_minimize_recovers_equal_spacing():
    res = en.minimize(Z1, kn.Riesz(3.0), 4, restarts=3, seed=5)
    pts = np.sort(res.best_config.points[:, 0])
    gaps = np.diff(np.concatenate([pts, [pts[0] + 1.0]]))
    assert np.max(np.abs(gaps - 0.25)) <= 1e-6


def test_minimize_log_n6_closed_form():
    res = en.minimize(Z1, kn.Log(), 6, restarts=3, seed=6)
    expect = 2.0 * 6.0 * (math.sqrt(math.pi) * 5.0 - math.log(6.0))
    assert res.best_energy == pytest.approx(expect, rel=1e-8)


def test_minimize_never_loses_to_structured_start():
    pot = kn.Riesz(1.0)
    res = en.minimize(Z2, pot, 4, restarts=3, seed=7, max_iters=800)
    structured = en.Configuration.lattice_refinement(Z2, 2)
    e_struct = en.total_energy(structured, pot, _plan(Z2, pot)).energy
    assert res.best_energy <= e_struct + 1e-9


def test_minimize_monotone_descent():
    res = en.minimize(Z1, kn.Riesz(0.5), 7, restarts=1, seed=8,
                      keep_trajectory=True)
    traj = np.array(res.trajectory_summary)
    assert np.all(np.diff(traj) <= 0.0)


def test_minimize_deterministic():
    a = en.minimize(Z2, kn.Riesz(1.0), 5, restarts=2, seed=9, max_iters=300)
    b = en.minimize(Z2, kn.Riesz(1.0), 5, restarts=2, seed=9, max_iters=300)
    assert a.best_energy == b.best_energy
    assert np.array_equal(a.best_config.points, b.best_config.points)
    assert a.restart_energies == b.restart_energies


def test_minimize_jitters_degenerate_start():
    # seed the structured start with n = m^d suppressed: random starts with
    # coincident points must be jittered, not crash
    pot = kn.Riesz(2.0)
    pts = np.array([[0.2], [0.2], [0.7]])
    rng = np.random.default_rng(0)
    jittered = en._jitter_degenerate(Z1, pts, rng)
    d = abs(jittered[0, 0] - jittered[1, 0])
    assert min(d, 1.0 - d) > 1e-6


def test_minimize_invalid_n():
    with pytest.raises(InvalidN):
        en.minimize(Z1, kn.Riesz(1.0), 1)


def test_minimize_non_increasing_in_restarts():
    # the restart substreams are keyed by index, so adding restarts keeps
    # the earlier starts and can only improve the best energy
    energies = [en.minimize(Z2, kn.Riesz(1.0), 5, restarts=r, seed=21,
                            max_iters=400).best_energy
                for r in (1, 2, 4)]
    assert energies[0] >= energies[1] >= energies[2]


def test_equally_spaced_is_local_min_under_perturbations():
    rng = np.random.default_rng(17)
    for s in (0.5, 1.0, 2.0):
        pot = kn.Riesz(s)
        plan = _plan(Z1, pot)
        for n in (4, 8):
            base = en.Configuration.equally_spaced(Z1, n)
            e0 = en.total_energy(base, pot, plan).energy
            for _ in range(100):
                delta = rng.uniform(-0.3 / n, 0.3 / n, size=(n, 1))
                cfg = en.Configuration(Z1, base.points + delta)
                e = en.total_energy(cfg, pot, plan).energy
                assert e >= e0 - 1e-10


def test_growth_diagnostic_columns():
    rows = en.growth_diagnostic(Z1, kn.Riesz(1.0), [4, 8, 16], restarts=2,
                                seed=3)
    # s = d = 1: E/(N^2 log N) climbs toward its limit value 2 (the exact
    # energy's second term N(N-1)(gamma - 2 log 2) is negative)
    per_log = [r.per_n2_log for r in rows]
    assert per_log[0] < per_log[1] < per_log[2] < 2.0
    for r in rows:
        expect = vd.riesz_1d_minimum(r.n, 1.0)
        assert r.energy == pytest.approx(expect, rel=1e-8)
        assert r.per_n2 == pytest.approx(r.energy / r.n**2)
        # s = 1, d = 1: the power column is E / N^(1+s/d) = E / N^2
        assert r.per_n_power == pytest.approx(r.per_n2)


def test_growth_diagnostic_s3_limit():
    rows = en.growth_diagnostic(Z1, kn.Riesz(3.0), [8, 16, 32], restarts=2,
                                seed=4)
    # E/N^(1+s) approaches the Epstein zeta of the integer lattice, 2 zeta(3)
    target = 2.0 * 1.2020569031595943
    last = rows[-1].per_n_power
    assert abs(last - target) / target < 0.01


def test_growth_requires_increasing_n():
    with pytest.raises(ValueError):
        en.growth_diagnostic(Z1, kn.Riesz(1.0), [8, 4])


def test_energies_match_reference():
    # total_energy value and gradient at N = 10 seeded random points, tol
    # 1e-10, eta 1 and 4, on the five presets for riesz 0.5/1/2.5, logriesz
    # 0.5/1/1.7, log and gaussian 0.5/3, written before each family owned
    # its term formulas
    path = Path(__file__).parent / "data" / "energies_reference.json"
    cases = json.loads(path.read_text())["cases"]
    assert len(cases) == 90
    lats = {}
    for ref in cases:
        name = ref["lattice"]
        lat = lats.setdefault(name, lattice_preset(name))
        pot = kn.parse_potential(ref["potential"])
        plan = kn.plan_ewald(lat, pot, ref["tol"], eta=ref["eta"])
        cfg = en.Configuration(lat, np.array(ref["points"]))
        rep = en.total_energy(cfg, pot, plan, with_gradient=True)
        where = f"{name} {ref['potential']} eta={ref['eta']}"
        assert abs(rep.energy - ref["energy"]) <= (
            1e-14 * abs(ref["energy"])), where
        grad = np.array(ref["gradient"])
        assert np.max(np.abs(rep.gradient - grad)) <= (
            1e-14 * np.max(np.abs(grad))), where

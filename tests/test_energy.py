import json
import math
from pathlib import Path

import numpy as np
import pytest

from perisum import energy as en
from perisum import kernel as kn
from perisum import validate as vd
from perisum.errors import InvalidN, InvalidParameter
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


def test_configuration_rejects_points_of_more_than_two_dimensions():
    # (2, 1, 1) has the lattice's d = 1 on its second axis; it must be
    # refused here, not inside total_energy
    with pytest.raises(InvalidParameter, match="N x d"):
        en.Configuration(Z1, np.array([[[0.1]], [[0.6]]]))


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
    rep = en.total_energy(cfg, pot, _plan(Z2, pot), with_gradient=True)
    assert rep.energy == math.inf and rep.gradient is None


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


@pytest.mark.parametrize("pot", [kn.Riesz(300.0), kn.LogRiesz(300.0)],
                         ids=lambda p: p.label)
@pytest.mark.parametrize("gap, finite", [(1e-3, False), (0.095, True)])
def test_no_gradient_beyond_double_range(pot, gap, finite):
    # at s = 300 r^-s passes the double range below r = 0.094, and the
    # gradient's s r^-s / r^2 a little above it; neither writes a warning
    pts = np.array([[0.1, 0.2], [0.1 + gap, 0.2], [0.4, 0.6], [0.7, 0.9]])
    plan = kn.plan_ewald(Z2, pot, 1e-10)
    rep = en.total_energy(en.Configuration(Z2, pts), pot, plan,
                          with_gradient=True)
    assert math.isfinite(rep.energy) == finite
    assert rep.gradient is None


def test_gradient_zero_at_equally_spaced():
    for s in (0.5, 2.0):
        pot = kn.Riesz(s)
        cfg = en.Configuration.equally_spaced(Z1, 6)
        g = en.total_energy(cfg, pot, _plan(Z1, pot), with_gradient=True).gradient
        assert np.max(np.abs(g)) < 1e-9


def test_gradient_antisymmetric_pair():
    pot = kn.Riesz(1.0)
    cfg = en.Configuration(Z2, np.array([[0.0, 0.0], [0.45, 0.55]]))
    g = en.total_energy(cfg, pot, _plan(Z2, pot), with_gradient=True).gradient
    assert np.allclose(g[0], -g[1], atol=1e-12)


def test_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(4)
    pot = kn.Riesz(1.3)
    plan = _plan(Z2, pot)
    for _ in range(5):
        cfg = en.Configuration.random(Z2, 6, rng)
        g = en.total_energy(cfg, pot, plan, with_gradient=True).gradient
        assert np.max(np.abs(g.sum(axis=0))) <= 1e-9


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    pot = kn.Riesz(1.0)
    plan = _plan(Z2, pot)
    cfg = en.Configuration.random(Z2, 5, rng)
    g = en.total_energy(cfg, pot, plan, with_gradient=True).gradient
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
# structure-factor reciprocal part against the pairwise kernel
# ---------------------------------------------------------------------------

_PRESETS = ("Z1", "Z2", "Z3", "hex", "fcc-like")
_SF_POTENTIALS = ("riesz:0.5", "riesz:1", "riesz:2.5", "logriesz:0.5",
                  "logriesz:1.7", "log", "gaussian:0.5")


def _pairwise_energy(cfg, pot, plan):
    """2 sum over unordered pairs of evaluate_batch, and its fractional
    gradient: the reference that total_energy's S(w) path replaces."""
    j, k, Q = en._pair_differences(cfg)
    values, grads, _ = kn.evaluate_batch(cfg.lattice, pot, plan, Q,
                                         want_grad=True)
    gradient = np.zeros_like(cfg.points)
    np.add.at(gradient, j, 2.0 * grads)
    np.add.at(gradient, k, -2.0 * grads)
    return 2.0 * float(values.sum()), gradient @ cfg.lattice.basis


@pytest.mark.parametrize("eta", (None, 1.0), ids=("default", "eta1"))
@pytest.mark.parametrize("name", _PRESETS)
def test_structure_factor_energy_matches_pairwise(name, eta):
    lat = lattice_preset(name)
    rng = np.random.default_rng([20, _PRESETS.index(name)])
    for text in _SF_POTENTIALS:
        pot = kn.parse_potential(text)
        plan = kn.plan_ewald(lat, pot, 1e-12, eta)
        cfg = en.Configuration.random(lat, 20, rng)
        rep = en.total_energy(cfg, pot, plan, with_gradient=True)
        e, g = _pairwise_energy(cfg, pot, plan)
        where = f"{name} {text} eta={plan.eta}"
        assert abs(rep.energy - e) <= 1e-12 * abs(e), where
        assert np.max(np.abs(rep.gradient - g)) <= 1e-12 * np.max(np.abs(g)), where


def test_structure_factor_energy_coincident_pair_and_one_point():
    pot = kn.LogRiesz(0.5)
    lat = lattice_preset("hex")
    plan = kn.plan_ewald(lat, pot, 1e-12)
    pts = np.array([[0.1, 0.7], [0.4, 0.2], [0.1, 0.7], [0.8, 0.5]])
    rep = en.total_energy(en.Configuration(lat, pts), pot, plan,
                          with_gradient=True)
    assert rep.energy == math.inf
    assert rep.degenerate_pairs == [(0, 2)]
    assert rep.gradient is None
    one = en.total_energy(en.Configuration(lat, pts[:1]), pot, plan,
                          with_gradient=True)
    assert one.energy == 0.0
    assert np.array_equal(one.gradient, np.zeros((1, 2)))


@pytest.mark.parametrize("name, pot", [("Z2", kn.Riesz(1.0)),
                                       ("hex", kn.LogRiesz(0.5))],
                         ids=["Z2-riesz1", "hex-logriesz0.5"])
def test_gradient_scatter_matches_parts_bitwise(name, pot):
    # total_energy scatters the pair gradients in one bincount over (point,
    # component); each entry must get the additions np.add.at makes over
    # the pairs in pair order, rows j first, on top of the dual gradient
    lat = lattice_preset(name)
    plan = kn.plan_ewald(lat, pot, 1e-12)
    cfg = en.Configuration.random(lat, 9, np.random.default_rng(17))
    got = en.total_energy(cfg, pot, plan, with_gradient=True).gradient
    j, k, Q = en._pair_differences(cfg)
    _, grads, _ = kn._direct_sums(plan, Q, True)
    _, dual = kn._dual_energy(plan, cfg.cartesian(), True)
    pairs = np.zeros_like(dual)
    np.add.at(pairs, np.concatenate([j, k]),
              2.0 * np.concatenate([grads, -grads]))
    assert np.array_equal(got, (dual + pairs) @ lat.basis)


@pytest.mark.parametrize("pot", [kn.Riesz(1.0), kn.Gaussian(0.5)],
                         ids=lambda p: p.label)
def test_degenerate_pairs_only_when_a_pair_coincides(pot):
    plan = _plan(Z2, pot)
    pts = np.array([[0.1, 0.1], [0.6, 0.3], [0.5, 0.9]])
    rep = en.total_energy(en.Configuration(Z2, pts), pot, plan,
                          with_gradient=True)
    assert rep.degenerate_pairs == []
    assert math.isfinite(rep.energy)
    pts[2] = pts[0] + [1.0, 0.0]  # the same point of the torus
    rep = en.total_energy(en.Configuration(Z2, pts), pot, plan,
                          with_gradient=True)
    assert rep.degenerate_pairs == [(0, 2)]
    assert (rep.energy == math.inf) == pot.singular


@pytest.mark.parametrize("name", ("Z2", "hex", "Z3", "fcc-like"))
@pytest.mark.parametrize("s", (0.5, 1.0, 1.5))
def test_refinement_law(name, s):
    # the m-fold refinement of a unit-covolume lattice, N = m^d points, has
    # E = N(N-1) W + N(N^(s/d) - 1) zeta_Lambda(s), W = 2 pi^(d/2) /
    # (Gamma(s/2)(d - s)), on the planner's default split; up to N = 256 in
    # d = 2 and N = 216 in d = 3
    lat = lattice_preset(name)
    d = lat.dimension
    pot = kn.Riesz(s)
    plan = kn.plan_ewald(lat, pot, 1e-12)
    w = 2.0 * math.pi ** (d / 2.0) / (math.gamma(s / 2.0) * (d - s))
    zeta = kn.epstein_zeta(lat, s)
    for m in (2, 3, 4, 16 if d == 2 else 6):
        n = m**d
        e = en.total_energy(en.Configuration.lattice_refinement(lat, m), pot,
                            plan).energy
        law = n * (n - 1) * w + n * (n ** (s / d) - 1.0) * zeta
        assert abs(e - law) <= 1e-12 * abs(law), (m, e, law)


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


def test_minimize_plans_for_its_point_count():
    # minimize prices the split for energies of its n points; the plan is
    # the one plan_ewald builds with that count (Z1 riesz:0.5 at N = 32
    # leaves the per-pair ladder, Z2 riesz:1 at N = 4 takes a smaller eta)
    for lat, pot, n in ((Z1, kn.Riesz(0.5), 32), (Z2, kn.Riesz(1.0), 4)):
        res = en.minimize(lat, pot, n, restarts=1, max_iters=0)
        fresh = kn.plan_ewald(lat, pot, 1e-12, n_points=n)
        assert res.plan.to_json_dict() == fresh.to_json_dict()
        assert np.array_equal(res.plan.dual_coeffs_half, fresh.dual_coeffs_half)
        assert res.plan.eta != _plan(lat, pot).eta


@pytest.mark.parametrize("name", _PRESETS)
def test_energy_on_point_count_plan_within_bounds(name):
    # an energy on the plan priced for its point count (eta up to 4096)
    # agrees with the energy on the per-pair plan within the two plans'
    # bounds and the rounding of the terms (rel_accuracy times the sum of
    # |terms| over the pairs, on either plan)
    lat = lattice_preset(name)
    n = 96 if lat.dimension < 3 else 40
    rng = np.random.default_rng([21, _PRESETS.index(name)])
    for text in _SF_POTENTIALS:
        pot = kn.parse_potential(text)
        cfg = en.Configuration.random(lat, n, rng)
        priced = kn.plan_ewald(lat, pot, 1e-12, n_points=n)
        pair = _plan(lat, pot)
        a = en.total_energy(cfg, pot, priced, with_gradient=True)
        b = en.total_energy(cfg, pot, pair, with_gradient=True)
        _, _, Q = en._pair_differences(cfg)
        rounding = 0.0
        for plan in (priced, pair):
            sums = np.empty(Q.shape[0])
            kn.evaluate_batch(lat, pot, plan, Q, abs_sums=sums)
            rounding += 2.0 * pot.rel_accuracy * float(sums.sum())
        where = f"{name} {text} eta={priced.eta}"
        assert abs(a.energy - b.energy) <= (
            a.abs_err_bound + b.abs_err_bound + rounding), where
        assert np.max(np.abs(a.gradient - b.gradient)) <= (
            a.grad_abs_err_bound + b.grad_abs_err_bound
            + 1e-10 * np.max(np.abs(b.gradient))), where


def test_minimize_deterministic():
    a = en.minimize(Z2, kn.Riesz(1.0), 5, restarts=2, seed=9, max_iters=300)
    b = en.minimize(Z2, kn.Riesz(1.0), 5, restarts=2, seed=9, max_iters=300)
    assert a.best_energy == b.best_energy
    assert np.array_equal(a.best_config.points, b.best_config.points)
    assert a.restart_energies == b.restart_energies


def test_minimize_converged_is_honest(monkeypatch):
    # one iteration from a random start is not a minimum
    res = en.minimize(Z2, kn.Riesz(1.0), 5, restarts=1, seed=9, max_iters=1)
    assert res.converged is False and res.restart_iters == [1]
    # no iterations at all: the start comes back as it was
    res = en.minimize(Z2, kn.Riesz(1.0), 4, restarts=1, max_iters=0)
    start = en.Configuration.lattice_refinement(Z2, 2)
    assert np.array_equal(res.best_config.points, start.points)
    assert res.converged is False and res.restart_iters == [0]

    returned = []
    relax = en._relax

    def recorded(plan, pts, max_iters, tol_grad):
        out = relax(plan, pts, max_iters, tol_grad)
        returned.append((plan, tol_grad, out))
        return out

    monkeypatch.setattr(en, "_relax", recorded)

    def flagged_restarts_sit_at_the_floor():
        for plan, tol_grad, (pts, e, conv, _) in returned:
            if conv:
                rep = en.total_energy(en.Configuration(plan.lattice, pts),
                                      plan.potential, plan, with_gradient=True)
                assert rep.energy == e and math.isfinite(e)
                assert np.max(np.abs(rep.gradient)) <= max(
                    tol_grad, 1e-7 * (1.0 + abs(e)))

    # the benchmark's relax cases, every restart, each reported in
    # restart_converged and restart_iters
    for lat, pot, n in ((Z1, kn.Riesz(0.5), 32), (Z2, kn.Riesz(1.0), 16)):
        for seed in (1, 2):
            res = en.minimize(lat, pot, n, restarts=2, seed=seed,
                              tol_grad=1e-8 * n * n, keep_trajectory=True)
            assert len(res.restart_converged) == len(res.restart_iters) == 2
            assert all(isinstance(c, bool) for c in res.restart_converged)
            best = int(np.argmin(res.restart_energies))
            assert res.restart_converged[best] == res.converged
            assert res.restart_iters[best] == len(res.trajectory_summary) - 1
    assert len(returned) == 8
    flagged_restarts_sit_at_the_floor()

    # with every pair closer than 0.1 counted as coincident, the first line
    # search meets +inf trials and L-BFGS-B reports convergence next to the
    # random start; converged must not repeat that
    returned.clear()
    monkeypatch.setattr(kn, "_SINGULAR_EPS", 0.1)
    for seed in (0, 2, 3):
        en.minimize(Z2, kn.Riesz(1.0), 5, restarts=2, seed=seed)
    assert not all(conv for _, _, (_, _, conv, _) in returned)
    flagged_restarts_sit_at_the_floor()


def test_relax_reaches_the_1d_law_bit_for_bit():
    # from random starts the L-BFGS reaches the exact minimum of 8 points at
    # s = 0.5, and a second run from the same start repeats every bit
    pot = kn.Riesz(0.5)
    plan = kn.plan_ewald(Z1, pot, 1e-12, n_points=8)
    law = vd.riesz_1d_minimum(8, 0.5)
    rng = np.random.default_rng(28)
    for _ in range(5):
        start = rng.random((8, 1))
        pts, e, conv, traj = en._relax(plan, start, 2000, 1e-8 * 8 * 8)
        assert conv and abs(e - law) <= 1e-9 * abs(law)
        again = en._relax(plan, start, 2000, 1e-8 * 8 * 8)
        assert np.array_equal(again[0], pts) and again[1:] == (e, conv, traj)


def test_compact_lbfgs_matches_the_two_loop_recursion():
    # -H g from the compact form against the two-loop recursion (Nocedal &
    # Wright, Numerical Optimization, Algorithm 7.4) on the pairs it keeps:
    # the newest m, without the ones with s^T y <= 0
    rng = np.random.default_rng(6)
    n, m = 7, 3
    memory = en._CompactLBFGS(m, n)
    kept = []
    for i in range(8):
        s = rng.standard_normal(n)
        y = -s if i == 4 else s + 0.5 * rng.standard_normal(n)
        memory.update(s, y)
        if s @ y > 0.0:
            kept = [*kept, (s, y)][-m:]
        g = rng.standard_normal(n)
        q, alphas = g.copy(), []
        for s_i, y_i in reversed(kept):
            alphas.append((s_i @ q) / (s_i @ y_i))
            q -= alphas[-1] * y_i
        s_k, y_k = kept[-1]
        r = (s_k @ y_k) / (y_k @ y_k) * q
        for (s_i, y_i), a in zip(kept, reversed(alphas)):
            r += s_i * (a - (y_i @ r) / (s_i @ y_i))
        assert memory.k == len(kept)
        assert np.allclose(memory.direction(g), -r, rtol=1e-12, atol=0.0)
    memory.clear()
    assert memory.direction(g) is None


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


def test_minimize_rejects_zero_restarts():
    with pytest.raises(InvalidParameter):
        en.minimize(Z1, kn.Riesz(1.0), 4, restarts=0)
    with pytest.raises(ValueError):
        en.minimize(Z1, kn.Riesz(1.0), 4, restarts=-2)


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
    # its term formulas; the rows the per-pair direct cut moved, and the
    # gaussian 0.5 rows the box order of the plan's vectors moved, were
    # written again under test_abs_err_bound_covers_reference_cases
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


def test_abs_err_bound_covers_reference_cases():
    # abs_err_bound = N(N-1) times the plan's bound, and it covers the
    # distance to a tol-1e-15 plan's energy (at the rounding floor where
    # that is higher) on the 90 reference configurations.  So does
    # grad_abs_err_bound for the gradient, up to a rounding allowance of
    # 1e-15 max|grad E|: on Z1 logriesz:1.7 eta = 1 (max|grad E| 8e9, bound
    # 1.3e-8) a change of summation order alone, same plan, moved the
    # gradient by 1.2e-16 of max|grad E|
    path = Path(__file__).parent / "data" / "energies_reference.json"
    lats = {}
    for ref in json.loads(path.read_text())["cases"]:
        name, eta = ref["lattice"], ref["eta"]
        lat = lats.setdefault(name, lattice_preset(name))
        pot = kn.parse_potential(ref["potential"])
        cfg = en.Configuration(lat, np.array(ref["points"]))
        plan = kn.plan_ewald(lat, pot, ref["tol"], eta=eta)
        tight = kn.plan_ewald(
            lat, pot, max(1e-15, kn._rounding_floor(lat, pot, eta)), eta=eta)
        rep = en.total_energy(cfg, pot, plan, with_gradient=True)
        exact = en.total_energy(cfg, pot, tight, with_gradient=True)
        n = cfg.n_points
        assert rep.abs_err_bound == n * (n - 1) * plan.guaranteed_abs_err
        assert rep.grad_abs_err_bound == (
            2.0 * (n - 1) * float(np.max(np.linalg.norm(lat.basis, axis=0)))
            * (plan.direct_grad_tail_bound + plan.dual_grad_tail_bound))
        where = f"{name} {ref['potential']} eta={eta}"
        assert abs(rep.energy - exact.energy) <= rep.abs_err_bound, where
        rounding = 1e-15 * np.max(np.abs(exact.gradient))
        assert np.max(np.abs(rep.gradient - exact.gradient)) <= (
            rep.grad_abs_err_bound + rounding), where

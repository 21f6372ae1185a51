import math

import numpy as np
import pytest

from perisum import lattice as lattice_module
from perisum import specfun as sf
from perisum import validate as vd
from perisum.lattice import lattice_preset


def test_riesz_check_n2_s2():
    r = vd.check_riesz_1d(2, 2.0)
    assert r.passed
    assert r.rhs == pytest.approx(2.0 * math.pi**2 - 4.0 * math.sqrt(math.pi),
                                  rel=1e-14)


def test_riesz_check_s1_reports_limit():
    r = vd.check_riesz_1d(2, 1.0)
    assert r.passed
    assert "limit" in r.note
    # the s = 1 value equals the continuity limit of the s != 1 branch
    h = 1e-5
    lim = 0.5 * (vd.riesz_1d_minimum(2, 1.0 + h) + vd.riesz_1d_minimum(2, 1.0 - h))
    assert vd.riesz_1d_minimum(2, 1.0) == pytest.approx(lim, rel=1e-8)


def test_riesz_check_sweep():
    for n, s in [(5, 0.5), (3, 3.0), (7, 1.0)]:
        assert vd.check_riesz_1d(n, s).passed


def test_logriesz_checks():
    assert vd.check_logriesz_1d(3, 2.0).passed
    assert vd.check_logriesz_1d(4, 0.5).passed
    r = vd.check_logriesz_1d(2, 1.0)
    assert r.passed
    assert "triple consistency" in r.note


def test_log_checks():
    r = vd.check_log_1d(2)
    assert r.passed
    assert r.rhs == pytest.approx(4.0 * (math.sqrt(math.pi) - math.log(2.0)),
                                  rel=1e-14)
    assert vd.check_log_1d(1).rhs == 0.0
    assert vd.check_log_1d(8).passed


def test_multiplication_checks():
    assert vd.check_multiplication(1, 2.0).passed
    r = vd.check_multiplication(4, 3.0)
    assert r.passed
    assert r.rhs == pytest.approx(64.0 * 1.2020569031595943, rel=1e-12)
    assert vd.check_multiplication(7, 0.6).passed  # continuation regime


def test_poisson_check_examples():
    z1 = lattice_preset("Z1")
    r = vd.check_poisson(z1, np.zeros(1), math.pi)
    assert r.passed
    # both sides equal the theta constant sum exp(-pi n^2)
    n = np.arange(-8, 9, dtype=float)
    theta = float(np.exp(-math.pi * n * n).sum())
    assert r.lhs == pytest.approx(theta, abs=1e-14)
    # large omega: the nearest-image term dominates
    r50 = vd.check_poisson(z1, np.array([0.4]), 50.0)
    assert r50.passed
    assert r50.lhs == pytest.approx(math.exp(-50.0 * 0.4**2), rel=1e-4)
    hexl = lattice_preset("hex")
    x = hexl.to_cartesian(np.array([0.21, 0.73]))
    assert vd.check_poisson(hexl, x, 2.0).passed


def test_constant_shift_values():
    # direct formula evaluations: 2 pi / (Gamma(2) * 2) = pi, etc.
    assert vd.shift_constant(4.0, 2) == pytest.approx(math.pi, rel=1e-14)
    z1 = lattice_preset("Z1")
    r = vd.check_constant_shift(z1, np.array([0.3]), 3.0)
    assert r.passed
    assert r.rhs == pytest.approx(
        2.0 * math.sqrt(math.pi) / (math.gamma(1.5) * 2.0), rel=1e-14)


def test_constant_shift_q_independence():
    z1 = lattice_preset("Z1")
    a = vd.check_constant_shift(z1, np.array([0.29]), 3.0)
    b = vd.check_constant_shift(z1, np.array([0.71]), 3.0)
    assert abs(a.lhs - b.lhs) <= 1e-10


def test_shift_pole_ratio():
    # first-order pole: the constant roughly doubles when s - d halves
    c1 = vd.shift_constant(1.1, 1)
    c2 = vd.shift_constant(1.05, 1)
    assert c2 / c1 == pytest.approx(2.0, rel=0.05)


def test_convexity_checks():
    assert vd.check_convexity_1d(2.0).passed
    assert vd.check_convexity_1d(0.5).passed


def test_lattice_comparison_observation():
    r = vd.check_lattice_comparison(3.0)
    assert r.passed  # hex below square
    assert r.lhs < r.rhs
    assert "observation" in r.note


@pytest.mark.parametrize("s", [3.0, 4.5, 7.0])
@pytest.mark.parametrize("q", [0.29, 0.5, 0.71])
def test_brute_force_d1_matches_hurwitz(s, q):
    # in d = 1 the lattice sum is zeta(s; q) + zeta(s; 1 - q); the box sum's
    # truncation (at most 2.5e-12) and rounding stay within 5e-13 relative
    exact = sf.hurwitz_zeta(s, q) + sf.hurwitz_zeta(s, 1.0 - q)
    bf = vd.brute_force_epstein_hurwitz(lattice_preset("Z1"), np.array([q]), s)
    assert abs(bf - exact) <= 5e-13 * exact


def test_brute_force_guard():
    z2 = lattice_preset("Z2")
    with pytest.raises(ValueError):
        vd.brute_force_epstein_hurwitz(z2, np.array([0.3, 0.3]), 3.0)
    with pytest.raises(ValueError):
        vd.brute_force_epstein_hurwitz(z2, np.array([0.3, 0.3]), 1.5)


@pytest.mark.parametrize("name,s,tail", [("Z1", 7.0, 1e-11), ("Z2", 8.0, 1e-11),
                                         ("hex", 6.5, 1e-6), ("fcc-like", 11.0, 1e-6)])
def test_box_block_size_moves_only_rounding(name, s, tail, monkeypatch):
    # the oracles' sums depend on the block size only through the order of
    # summation
    lat = lattice_preset(name)
    q = lat.to_cartesian(np.full(lat.dimension, 0.31))
    omega = 1.3
    monkeypatch.setattr(vd, "_BRUTE_TAIL", tail)
    bf = vd.brute_force_epstein_hurwitz(lat, q, s)
    po = vd.check_poisson(lat, q, omega)
    monkeypatch.setattr(lattice_module, "_BOX_BLOCK", 7)
    bf7 = vd.brute_force_epstein_hurwitz(lat, q, s)
    assert bf7 == pytest.approx(bf, rel=1e-14)
    po7 = vd.check_poisson(lat, q, omega)
    assert po7.lhs == pytest.approx(po.lhs, rel=1e-14)
    assert po7.rhs == pytest.approx(po.rhs, rel=1e-14)


@pytest.mark.parametrize("name,s", [("Z3", 9.5), ("Z1", 3.0)])
def test_brute_force_memory_bounded(name, s):
    # the boxes have 139^3 and 1.26e6 points (21 and 10 MiB per coordinate
    # array); walked in blocks, the sum holds a few 1 MiB arrays at a time
    import tracemalloc

    lat = lattice_preset(name)
    q = lat.to_cartesian(np.full(lat.dimension, 0.45))
    tracemalloc.start()
    try:
        vd.brute_force_epstein_hurwitz(lat, q, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_check_result_pass_rule():
    # passed iff abs_err <= tol or rel_err <= tol
    r = vd._make_check("synthetic", 1.0 + 1e-12, 1.0, 1e-9)
    assert r.passed and r.abs_err <= 1e-9
    r = vd._make_check("synthetic", 2.0, 1.0, 1e-9)
    assert not r.passed
    r = vd._make_check("synthetic", 1e9 + 1.0, 1e9, 1e-6)
    assert r.passed and r.abs_err > r.tolerance and r.rel_err <= r.tolerance


def test_run_suite_all_passes():
    results = vd.run_suite("all", seed=0)
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    assert len(results) >= 30


def test_run_suite_names():
    assert all(r.passed for r in vd.run_suite("poisson", seed=1))
    with pytest.raises(KeyError):
        vd.run_suite("bogus")

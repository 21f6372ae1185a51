"""Executable identity checks: exact one-dimensional minimal-energy laws,
the Hurwitz multiplication identity, Poisson summation, the constant-shift
law between direct sums and the renormalized kernel, and kernel convexity
on the circle.

The default suite is the regression gate: every check passes at its stated
tolerance.  The hexagonal-vs-square Epstein comparison is reported as an
observation (both values shown), not as a proved statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import energy as en
from . import kernel as kn
from . import specfun as sf
from .lattice import enumerate_shells, lattice_preset

__all__ = [
    "CheckResult",
    "riesz_1d_minimum",
    "logriesz_1d_minimum",
    "log_1d_minimum",
    "check_riesz_1d",
    "check_logriesz_1d",
    "check_log_1d",
    "check_multiplication",
    "check_poisson",
    "check_constant_shift",
    "check_convexity_1d",
    "check_lattice_comparison",
    "brute_force_epstein_hurwitz",
    "shift_constant",
    "run_suite",
    "SUITES",
]


@dataclass
class CheckResult:
    name: str
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    tolerance: float
    passed: bool
    note: str = ""

    def to_json_dict(self):
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "note": self.note,
        }


def _make_check(name, lhs, rhs, tolerance, note=""):
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if rhs != 0.0 else (0.0 if abs_err == 0.0 else math.inf)
    passed = abs_err <= tolerance or rel_err <= tolerance
    return CheckResult(name, float(lhs), float(rhs), float(abs_err),
                       float(rel_err), float(tolerance), bool(passed), note)


# ---------------------------------------------------------------------------
# exact one-dimensional laws
# ---------------------------------------------------------------------------


def riesz_1d_minimum(n, s):
    """Minimal periodic Riesz s-energy of N equally spaced points on the
    unit circle lattice.

    For s != 1: 2 N^(1+s) zeta(s) - 2 N zeta(s)
                - N(N-1) 2 sqrt(pi) / (Gamma(s/2)(s-1)).
    The s = 1 value is the continuity limit of that expression,
    2 N^2 log N + N(N-1)(gamma - 2 log 2); the kernel energy is analytic in
    s, so the limit is the correct closed form (check_riesz_1d reports the
    numerical limit alongside it).
    """
    if abs(s - 1.0) < 1e-12:
        return (2.0 * n * n * math.log(n)
                + n * (n - 1) * (sf.euler_gamma() - 2.0 * math.log(2.0)))
    z = sf.riemann_zeta(s)
    return (2.0 * n ** (1.0 + s) * z - 2.0 * n * z
            - n * (n - 1) * 2.0 * math.sqrt(math.pi)
            / (math.gamma(s / 2.0) * (s - 1.0)))


def logriesz_1d_minimum(n, s):
    """Minimal periodic log-Riesz s-energy of N equally spaced points."""
    if abs(s - 1.0) < 1e-12:
        g1 = sf.stieltjes_gamma1()
        psih = sf.digamma(0.5)
        psih1 = sf.trigamma(0.5)
        return (2.0 * (n * math.log(n)) ** 2
                + 4.0 * sf.euler_gamma() * n * n * math.log(n)
                - n * (n - 1) * (4.0 * g1 + 0.5 * (psih**2 - psih1)))
    z = sf.riemann_zeta(s)
    zp = sf.riemann_zeta_ds(s)
    gs = math.gamma(s / 2.0)
    gsp = gs * sf.digamma(s / 2.0)
    bracket = (n ** (1.0 + s) * math.log(n) * z
               + zp * n * (n**s - 1.0)
               + math.sqrt(math.pi) * n * (n - 1)
               * (gsp * (s - 1.0) / 2.0 + gs) / (gs * gs * (s - 1.0) ** 2))
    return 4.0 * bracket


def log_1d_minimum(n):
    """Minimal periodic logarithmic energy: 2N(sqrt(pi)(N-1) - log N)."""
    return 2.0 * n * (math.sqrt(math.pi) * (n - 1) - math.log(n))


def _equally_spaced_energy(n, pot, tol=1e-12):
    lat = lattice_preset("Z1")
    plan = kn.plan_ewald(lat, pot, tol)
    cfg = en.Configuration.equally_spaced(lat, n)
    return en.total_energy(cfg, pot, plan).energy


def check_riesz_1d(n, s):
    """Ewald energy of equally spaced points against the exact Riesz law."""
    lhs = _equally_spaced_energy(n, kn.Riesz(s))
    rhs = riesz_1d_minimum(n, s)
    note = ""
    if abs(s - 1.0) < 1e-12:
        h = 1e-4
        limit = 0.5 * (riesz_1d_minimum(n, 1.0 + h) + riesz_1d_minimum(n, 1.0 - h))
        note = (f"s=1 closed form is the continuity limit; Richardson limit "
                f"of the s!=1 branch at h={h:g} gives {limit:.12g}")
    return _make_check(f"riesz-1d(N={n},s={s:g})", lhs, rhs, 1e-9, note)


def check_logriesz_1d(n, s):
    """Ewald log-Riesz energy against the exact law; at s = 1 reports the
    triple consistency (kernel sum / closed form / s -> 1 extrapolation)
    instead of trusting any single value."""
    lhs = _equally_spaced_energy(n, kn.LogRiesz(s))
    rhs = logriesz_1d_minimum(n, s)
    if abs(s - 1.0) >= 1e-12:
        return _make_check(f"logriesz-1d(N={n},s={s:g})", lhs, rhs, 1e-7)
    h = 1e-4
    limit = 0.5 * (logriesz_1d_minimum(n, 1.0 + h)
                   + logriesz_1d_minimum(n, 1.0 - h))
    gap_kc = abs(lhs - rhs) / abs(rhs)
    gap_cl = abs(rhs - limit) / abs(rhs)
    gap_kl = abs(lhs - limit) / abs(rhs)
    flagged = max(gap_kc, gap_cl, gap_kl) > 1e-5
    note = (f"triple consistency: kernel={lhs:.12g} closed={rhs:.12g} "
            f"limit={limit:.12g}; pairwise rel gaps "
            f"k-c={gap_kc:.2e} c-l={gap_cl:.2e} k-l={gap_kl:.2e}"
            + ("; FLAGGED for review" if flagged else ""))
    return _make_check(f"logriesz-1d(N={n},s=1)", lhs, rhs, 1e-5, note)


def check_log_1d(n):
    """Ewald logarithmic energy against 2N(sqrt(pi)(N-1) - log N)."""
    if n == 1:
        lhs = 0.0  # empty pair sum
    else:
        lhs = _equally_spaced_energy(n, kn.Log())
    return _make_check(f"log-1d(N={n})", lhs, log_1d_minimum(n), 1e-9)


def check_multiplication(n, s):
    """sum_{j=1..n} zeta(s; j/n) = n^s zeta(s), valid through the
    analytic continuation."""
    lhs = sum(sf.hurwitz_zeta(s, j / n) for j in range(1, n + 1))
    rhs = n**s * sf.riemann_zeta(s)
    return _make_check(f"multiplication(n={n},s={s:g})", lhs, rhs, 1e-10)


# ---------------------------------------------------------------------------
# Poisson summation and the constant-shift law
# ---------------------------------------------------------------------------


def check_poisson(lat, x, omega):
    """Gaussian Poisson summation on a unit-covolume lattice:
    sum_v exp(-omega |x+v|^2)
      = (pi/omega)^(d/2) sum_w cos(2 pi w.x) exp(-pi^2 |w|^2 / omega).
    Both sides truncated to absolute error well below 1e-12.
    """
    d = lat.dimension
    x = np.asarray(x, dtype=float)
    r_max = math.sqrt(48.0 / omega) + lat.half_cell_diameter + float(np.linalg.norm(x))
    direct = enumerate_shells(lat, "direct", r_max)
    lhs = float(np.exp(-omega * np.sum((x[None, :] + direct.vectors) ** 2,
                                       axis=1)).sum())
    k_max = math.sqrt(48.0 * omega) / math.pi + 1.0
    dual = enumerate_shells(lat, "dual", k_max)
    w = dual.vectors
    rhs = (math.pi / omega) ** (d / 2.0) * float(
        np.sum(np.cos(2.0 * math.pi * (w @ x))
               * np.exp(-math.pi**2 * np.sum(w * w, axis=1) / omega)))
    return _make_check(
        f"poisson(d={d},omega={omega:.3g})", lhs, rhs, 1e-12,
        note=f"x={np.array2string(x, precision=4)}")


def shift_constant(s, d):
    """2 pi^(d/2) / (Gamma(s/2)(s-d)): the configuration-independent offset
    between the convergent direct sum (s > d) and the renormalized kernel."""
    return 2.0 * math.pi ** (d / 2.0) / (math.gamma(s / 2.0) * (s - d))


def brute_force_epstein_hurwitz(lat, q, s, tail_target=1e-11):
    """Direct sum of |q+v|^-s over the lattice, for s > d only.  The cutoff
    radius is chosen from the integral tail bound so the truncation error is
    below tail_target.  Independent of the Ewald machinery.

    Only practical when s - d is comfortably positive: the radius grows like
    tail_target^(-1/(s-d)), so a guard refuses boxes beyond ~2e7 points.
    """
    d = lat.dimension
    if s <= d:
        raise ValueError("direct sum requires s > d")
    sigma_d = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    radius = (4.0 * sigma_d / ((s - d) * tail_target)) ** (1.0 / (s - d))
    radius = max(radius, 4.0) + lat.half_cell_diameter
    inv = np.linalg.inv(lat.basis)
    box = np.ceil(np.linalg.norm(inv, axis=1) * radius + 1).astype(int)
    if np.prod(2.0 * box + 1.0) > 2e7:
        raise ValueError(
            f"brute force at s={s}, d={d} needs radius {radius:.3g}; "
            "increase s - d or loosen tail_target")
    shells = enumerate_shells(lat, "direct", radius)
    q = np.asarray(q, dtype=float)
    r = np.linalg.norm(q[None, :] + shells.vectors, axis=1)
    return float(np.sum(r ** (-s)))


def check_constant_shift(lat, q, s):
    """Brute-force direct sum minus the Ewald kernel equals the shift
    constant, independently of q (s > d)."""
    d = lat.dimension
    bf = brute_force_epstein_hurwitz(lat, q, s)
    plan = kn.plan_ewald(lat, kn.Riesz(s), 1e-13)
    kv = kn.kernel_value(plan, np.asarray(q, float), np.zeros(d))
    lhs = bf - kv.value
    rhs = shift_constant(s, d)
    return _make_check(f"constant-shift(d={d},s={s:g})", lhs, rhs, 1e-9,
                       note=f"q={np.array2string(np.asarray(q), precision=4)}")


# ---------------------------------------------------------------------------
# convexity and lattice comparison
# ---------------------------------------------------------------------------


def check_convexity_1d(s, grid=101):
    """Second differences of q -> K_s(q, 0) on a uniform grid of (0,1) are
    all positive, and the kernel is symmetric about q = 1/2.

    The symmetry residual is measured on a dyadic grid, where the mirror
    point 1 - q is exactly representable; there the canonical min-image
    representative of q and 1 - q is the same float and the kernel values
    agree bitwise.
    """
    lat = lattice_preset("Z1")
    plan = kn.plan_ewald(lat, kn.Riesz(s), 1e-12)
    zero = np.zeros(1)

    def kernel_on(points):
        q_min = np.stack([kn.min_image_difference(lat, np.array([q]), zero)
                          for q in points])
        vals, _, _ = kn.evaluate_batch(lat, kn.Riesz(s), plan, q_min)
        return vals

    qs = np.linspace(0.0, 1.0, grid + 1, endpoint=False)[1:]
    vals = kernel_on(qs)
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    min2 = float(second.min())
    dyadic = np.arange(1, 128, dtype=float) / 128.0
    sym = float(np.max(np.abs(kernel_on(dyadic) - kernel_on(1.0 - dyadic))))
    violation = max(0.0, -min2)
    return CheckResult(
        name=f"convexity-1d(s={s:g},grid={grid})",
        lhs=min2,
        rhs=0.0,
        abs_err=violation,
        rel_err=violation,
        tolerance=0.0,
        passed=(min2 > 0.0) and sym <= 1e-12,
        note=f"min second difference {min2:.3e}; symmetry residual {sym:.1e}",
    )


def check_lattice_comparison(s):
    """Observation: Epstein zeta of the hexagonal lattice vs the square
    lattice at s > 2 (both unit co-volume).  Reported with both values; the
    expected ordering is hex < square."""
    hexv = kn.epstein_zeta(lattice_preset("hex"), s)
    sqv = kn.epstein_zeta(lattice_preset("Z2"), s)
    return CheckResult(
        name=f"epstein-hex-vs-square(s={s:g})",
        lhs=hexv,
        rhs=sqv,
        abs_err=max(0.0, hexv - sqv),
        rel_err=max(0.0, hexv - sqv) / abs(sqv),
        tolerance=0.0,
        passed=hexv < sqv,
        note="observation: comparison of lattice energies, not a proved statement",
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_1d(rng):
    out = []
    for n, s in [(2, 2.0), (2, 1.0), (5, 0.5), (8, 3.0), (12, 2.0)]:
        out.append(check_riesz_1d(n, s))
    for n, s in [(3, 2.0), (4, 0.5), (2, 1.0), (6, 2.0)]:
        out.append(check_logriesz_1d(n, s))
    for n in (1, 2, 8, 16):
        out.append(check_log_1d(n))
    for n, s in [(1, 2.0), (4, 3.0), (7, 0.6), (7, 3.5)]:
        out.append(check_multiplication(n, s))
    for s in (0.5, 2.0):
        out.append(check_convexity_1d(s))
    return out


def _suite_poisson(rng):
    out = []
    lats = [lattice_preset(n) for n in ("Z1", "Z2", "hex")]
    for i in range(12):
        lat = lats[i % 3]
        x = lat.to_cartesian(rng.random(lat.dimension))
        omega = float(rng.uniform(0.3, 10.0))
        out.append(check_poisson(lat, x, omega))
    return out


def _suite_shift(rng):
    out = []
    for lat_name, s in [("Z1", 3.0), ("Z1", 4.5), ("Z2", 6.5), ("Z2", 8.0),
                        ("Z3", 9.5)]:
        lat = lattice_preset(lat_name)
        q = lat.to_cartesian(rng.uniform(0.2, 0.8, lat.dimension))
        out.append(check_constant_shift(lat, q, s))
    # pole approach: the constant grows at first order as s decreases to d
    c1 = shift_constant(1.0 + 0.1, 1)
    c2 = shift_constant(1.0 + 0.05, 1)
    out.append(_make_check("shift-pole-ratio(d=1)", c2 / c1, 2.0, 0.05,
                           note="ratio of constants at s=d+0.05 vs d+0.1"))
    return out


SUITES = {
    "1d": _suite_1d,
    "poisson": _suite_poisson,
    "shift": _suite_shift,
}


def run_suite(name="all", seed=0):
    """Run one named suite ('1d', 'poisson', 'shift') or 'all'."""
    rng = np.random.default_rng(seed)
    if name == "all":
        out = []
        for key in ("1d", "poisson", "shift"):
            out.extend(SUITES[key](rng))
        for s in (3.0, 4.0):
            out.append(check_lattice_comparison(s))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose 1d, poisson, shift, all")
    return SUITES[name](rng)

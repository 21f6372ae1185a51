"""Renormalized periodic pair kernels via Ewald-type split sums.

For a point difference q on a unit-covolume lattice, the periodic kernel is
assembled from a real-space sum over direct lattice vectors (incomplete-gamma
terms), a reciprocal-space sum over nonzero dual vectors (cosine terms), and
a splitting-parameter constant.  With splitting parameter eta the Riesz
kernel of exponent s reads

    K_s(q) = 1/Gamma(s/2) * sum_v Gamma(s/2, eta|q+v|^2) |q+v|^-s
           + pi^(d/2)/Gamma(s/2) * sum_{w != 0} cos(2 pi w.q)
                 (pi|w|)^(s-d) Gamma((d-s)/2, pi^2|w|^2 / eta)
           + 2 pi^(d/2) (eta^((s-d)/2) - 1) / (Gamma(s/2) (s-d)),

where the constant is continued through s = d by expm1.  eta = 1 recovers
the canonical split; the value is independent of eta, which the test suite
checks numerically.  The log-Riesz kernel is 2 d/ds of the Riesz kernel
(term-wise, with the sigma-derivative of the incomplete gamma taken by a
small central difference), the logarithmic kernel replaces the gamma terms
by E1 and Gamma(d/2, .), and the Gaussian kernel is an absolutely
convergent direct sum minus its lattice-average constant.

evaluate_batch makes one pass over blocks of difference rows, each block
holding at most _BLOCK_PAIR_IMAGES (row, direct image) pairs, so its
memory does not grow with the batch.  Within a block the distances, the
regularized Q(s/2, eta r^2), r^-s and exp(-eta r^2) (and, for log-Riesz,
log r and the sigma-stencil) are computed once and serve both the value
and the gradient.  Q(1/2, x) = erfc(sqrt x), the d = 3 Coulomb case, is
taken from specfun without scipy's general incomplete gamma.

Each potential family (Riesz, LogRiesz, Log, Gaussian) is one frozen
dataclass that owns its split: label (its parse_potential string),
singular, direct_rate(eta) (the Gaussian decay rate of its real-space
terms), direct_terms(eta, want_grad), dual_coeffs(eta, d) (None for the
Gaussian) and eta_constant(eta, d).  The term formulas are built once per
(potential, eta, d) and take an array (evaluate_batch) or one float
(plan_ewald's envelopes); with want_grad, direct_terms also returns the
radial factor g'(r)/r, each term's gradient being radial * (q + v).
Powers go through np.power because ** on a float rounds through libm, one
ulp away from the array path in some cases, and the planner's tails would
amplify it.  kernel_value(plan, x, y) is the one single-pair entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate
from scipy import special as sc

from . import specfun as sf
from .errors import (
    DimensionMismatch,
    LatticePoint,
    PlanMismatch,
    PolePoint,
    UnreachableTolerance,
)
from .lattice import Lattice, enumerate_shells, min_dual_norm

__all__ = [
    "Riesz",
    "LogRiesz",
    "Log",
    "Gaussian",
    "parse_potential",
    "EwaldPlan",
    "KernelValue",
    "plan_ewald",
    "evaluate_batch",
    "kernel_value",
    "coulomb_kernel",
    "gaussian_kernel",
    "epstein_hurwitz_zeta",
    "epstein_zeta",
    "convergence_factor_oracle",
    "min_image_difference",
]

_SINGULAR_EPS = 1e-13  # |q + v| below this counts as a lattice point
_SIGMA_STEP = 1e-3     # step of the 4th-order d/dsigma Gamma(sigma, x) stencil
# rows x images per block of evaluate_batch: bounds its temporaries to
# about 12 MiB whatever the batch size
_BLOCK_PAIR_IMAGES = 1 << 17


def _expm1_over(u, a):
    """phi(u) = expm1(u a)/u with its removable singularity at u = 0."""
    if abs(u * a) < 1e-8:
        return a * (1.0 + 0.5 * u * a + u * u * a * a / 6.0)
    return math.expm1(u * a) / u


def _expm1_over_du(u, a):
    """phi'(u) for the eta-constant's s-derivative."""
    if abs(u * a) < 1e-6:
        return a * a * (0.5 + u * a / 3.0 + u * u * a * a / 8.0)
    return (a * math.exp(u * a) * u - math.expm1(u * a)) / (u * u)


# ---------------------------------------------------------------------------
# potential families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Riesz:
    """Inverse-power potential |x|^-s, s > 0."""

    s: float
    singular = True

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError("Riesz exponent s must be positive")

    @property
    def label(self):
        return f"riesz:{self.s:g}"

    def direct_rate(self, eta):
        return eta

    def direct_terms(self, eta, want_grad=False):
        s = self.s
        sig = 0.5 * s
        # radial factor: -(c1 e^-x + s t) / r^2, c1 = 2 eta^(s/2) / Gamma(s/2)
        c1 = 2.0 * eta**sig / math.gamma(sig)

        def riesz_terms(r):
            r2 = r * r
            x = eta * r2
            t = sf.gamma_upper_reg_vec(sig, x) * np.power(r, -s)
            if not want_grad:
                return t, None
            radial = np.exp(-x)
            radial *= c1
            radial += s * t
            radial /= r2
            return t, np.negative(radial, out=radial)

        return riesz_terms

    def dual_coeffs(self, eta, d):
        s = self.s
        sig = (d - s) / 2.0
        pref = math.pi ** (d / 2.0) / math.gamma(s / 2.0)

        def riesz_coeffs(k):
            z = math.pi**2 * k * k / eta
            power = np.power(math.pi * k, s - d)
            return pref * power * sf.gamma_upper_vec(sig, z)

        return riesz_coeffs

    def eta_constant(self, eta, d):
        phi = _expm1_over(self.s - d, 0.5 * math.log(eta))
        return 2.0 * math.pi ** (d / 2.0) * phi / math.gamma(self.s / 2.0)


@dataclass(frozen=True)
class LogRiesz:
    """Potential |x|^-s log(|x|^-2), s > 0: 2 d/ds of the Riesz potential,
    and so are its terms, coefficients and constant."""

    s: float
    singular = True

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError("LogRiesz exponent s must be positive")

    @property
    def label(self):
        return f"logriesz:{self.s:g}"

    def direct_rate(self, eta):
        return eta

    def direct_terms(self, eta, want_grad=False):
        s = self.s
        sig = 0.5 * s
        gs = math.gamma(sig)
        psi = sf.digamma(sig)
        # 2 d/ds of the Riesz radial factor, with 2 dc1/ds = c1 (log eta - psi)
        c1 = 2.0 * eta**sig / gs * (math.log(eta) - psi)

        def logriesz_terms(r):
            r2 = r * r
            x = eta * r2
            rpow = np.power(r, -s)
            t = sf.gamma_upper_reg_vec(sig, x) * rpow
            t2 = sf.gamma_upper_dsigma_vec(sig, x, _SIGMA_STEP)
            t2 *= rpow
            t2 /= gs
            t2 -= 2.0 * np.log(r) * t
            t2 -= psi * t
            if not want_grad:
                return t2, None
            radial = np.exp(-x)
            radial *= c1
            radial += 2.0 * t
            radial += s * t2
            radial /= r2
            return t2, np.negative(radial, out=radial)

        return logriesz_terms

    def dual_coeffs(self, eta, d):
        s = self.s
        sig = (d - s) / 2.0
        pref = math.pi ** (d / 2.0) / math.gamma(s / 2.0)
        psi = sf.digamma(s / 2.0)

        def logriesz_coeffs(k):
            z = math.pi**2 * k * k / eta
            pk = math.pi * k
            power = np.power(pk, s - d)
            a = pref * power * sf.gamma_upper_vec(sig, z)
            dsig = sf.gamma_upper_dsigma_vec(sig, z, _SIGMA_STEP)
            return 2.0 * a * np.log(pk) - a * psi - pref * power * dsig

        return logriesz_coeffs

    def eta_constant(self, eta, d):
        s = self.s
        u = s - d
        a = 0.5 * math.log(eta)
        psi = sf.digamma(s / 2.0)
        return (4.0 * math.pi ** (d / 2.0) / math.gamma(s / 2.0)
                * (_expm1_over_du(u, a) - 0.5 * _expm1_over(u, a) * psi))


@dataclass(frozen=True)
class Log:
    """Potential log(|x|^-2)."""

    singular = True
    label = "log"

    def direct_rate(self, eta):
        return eta

    def direct_terms(self, eta, want_grad=False):
        def log_terms(r):
            r2 = r * r
            x = eta * r2
            t = sc.exp1(x)
            return t, (-2.0 * np.exp(-x) / r2 if want_grad else None)

        return log_terms

    def dual_coeffs(self, eta, d):
        pi_d2 = math.pi ** (d / 2.0)

        def log_coeffs(k):
            z = math.pi**2 * k * k / eta
            return sf.gamma_upper_vec(d / 2.0, z) / (pi_d2 * np.power(k, d))

        return log_coeffs

    def eta_constant(self, eta, d):
        return -(2.0 / d) * math.pi ** (d / 2.0) * (eta ** (-d / 2.0) - 1.0)


@dataclass(frozen=True)
class Gaussian:
    """Potential exp(-c |x|^2), c > 0: an absolutely convergent direct sum,
    finite at lattice points, with no split and no reciprocal part."""

    c: float
    singular = False

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("Gaussian width parameter c must be positive")

    @property
    def label(self):
        return f"gaussian:{self.c:g}"

    def direct_rate(self, eta):
        return self.c

    def direct_terms(self, eta, want_grad=False):
        c = self.c

        def gaussian_terms(r):
            t = np.exp(-c * (r * r))
            return t, (-2.0 * c * t if want_grad else None)

        return gaussian_terms

    def dual_coeffs(self, eta, d):
        return None

    def eta_constant(self, eta, d):
        # the lattice-average subtraction: the integral over [0, 1) of
        # pi^(d/2) t^(-d/2) against the point mass at c, active exactly
        # when c < 1
        c = self.c
        return -((math.pi / c) ** (d / 2.0)) if c < 1.0 else 0.0


def parse_potential(text):
    """Parse 'riesz:S', 'logriesz:S', 'log' or 'gaussian:C'."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    try:
        if name == "riesz":
            return Riesz(float(arg))
        if name == "logriesz":
            return LogRiesz(float(arg))
        if name == "log":
            if arg:
                raise ValueError("log takes no parameter")
            return Log()
        if name == "gaussian":
            return Gaussian(float(arg))
    except ValueError as exc:
        raise ValueError(f"bad potential string {text!r}: {exc}") from None
    raise ValueError(f"unknown potential family {name!r}")


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EwaldPlan:
    """Truncation radii with certified tail bounds for one (lattice,
    potential, eta) combination.  Holds the enumerated shells so repeated
    evaluations share them."""

    lattice: Lattice
    potential: object
    eta: float
    r_cut: float
    k_cut: float
    tol: float
    direct_tail_bound: float
    dual_tail_bound: float
    direct_vectors: np.ndarray = field(repr=False, default=None)
    dual_vectors_half: np.ndarray = field(repr=False, default=None)
    dual_norms_half: np.ndarray = field(repr=False, default=None)

    @property
    def guaranteed_abs_err(self):
        return self.direct_tail_bound + self.dual_tail_bound

    @property
    def terms_direct(self):
        return int(self.direct_vectors.shape[0])

    @property
    def terms_dual(self):
        return 2 * int(self.dual_vectors_half.shape[0])

    def to_json_dict(self):
        return {
            "potential": self.potential.label,
            "eta": self.eta,
            "r_cut": self.r_cut,
            "k_cut": self.k_cut,
            "tol": self.tol,
            "direct_tail_bound": self.direct_tail_bound,
            "dual_tail_bound": self.dual_tail_bound,
            "guaranteed_abs_err": self.guaranteed_abs_err,
            "terms_direct": self.terms_direct,
            "terms_dual": self.terms_dual,
        }


@dataclass(frozen=True)
class KernelValue:
    """One kernel evaluation: value (+inf at lattice points for singular
    potentials), the plan's certified truncation error, and term counts."""

    value: float
    abs_err_bound: float
    terms_direct: int
    terms_dual: int


def _sphere_area_coeff(d):
    # surface area of the unit sphere in R^d
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _direct_envelope(pot, eta):
    """Magnitude of one real-space term as a function of a float distance,
    through the term formula evaluate_batch uses, and the rate of its
    Gaussian decay."""
    terms = pot.direct_terms(eta)

    def env(r):
        return abs(float(terms(r)[0]))

    return env, pot.direct_rate(eta)


def _dual_envelope(pot, eta, d):
    """Magnitude of one reciprocal-space coefficient as a function of a
    float dual norm, through the coefficient formula evaluate_batch uses, or
    None when the potential needs no reciprocal correction (Gaussian)."""
    coeffs = pot.dual_coeffs(eta, d)
    if coeffs is None:
        return None, None

    def env(k):
        return abs(float(coeffs(k)))

    return env, math.pi**2 / eta


def _tail_integral(env, radius, d, shift, span):
    """Upper estimate of the sum of env(|v| - shift) over shells beyond
    radius, using the co-volume-1 shell density sigma_d rho^(d-1) with a
    factor-2 safety margin for discreteness."""
    coeff = 2.0 * _sphere_area_coeff(d)

    def integrand(rho):
        return coeff * rho ** (d - 1) * env(max(rho - shift, 1e-9))

    val, _ = integrate.quad(integrand, radius, radius + span, limit=200)
    return val


def plan_ewald(lat, pot, tol, eta=1.0, shell_budget=500_000):
    """Choose truncation radii so each tail estimate is below tol/2.

    Each tail estimate integrates a term envelope over a window beyond the
    candidate radius.  The envelopes are evaluated on scalars, one float per
    quadrature node, through the same term formulas evaluate_batch applies
    to arrays (pot.direct_terms, pot.dual_coeffs), with the constants of
    (pot, eta, d) computed once per envelope rather than per node.  The
    recorded bounds are the integral estimates used for the decision; they
    can be recomputed from the plan's fields.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if eta <= 0:
        raise ValueError("eta must be positive")
    d = lat.dimension
    margin = lat.half_cell_diameter
    shortest = float(np.min(np.linalg.norm(lat.basis, axis=0)))

    env_dir, rate_dir = _direct_envelope(pot, eta)
    span_dir = 10.0 + 6.0 / math.sqrt(rate_dir)
    r_cut = max(shortest, margin + 1.0)
    r_max = 60.0 * max(1.0, 1.0 / math.sqrt(rate_dir))
    while True:
        direct_tail = _tail_integral(env_dir, r_cut, d, margin, span_dir)
        if direct_tail < tol / 2.0:
            break
        r_cut += 0.5
        if r_cut > r_max:
            raise UnreachableTolerance(
                f"direct cutoff exceeded budget at tol={tol}")

    env_dual, rate_dual = _dual_envelope(pot, eta, d)
    if env_dual is None:
        k_cut = 0.0
        dual_tail = 0.0
    else:
        w0 = min_dual_norm(lat)
        span_dual = 10.0 + 6.0 / math.sqrt(rate_dual)
        k_cut = w0
        k_max = 60.0 * max(1.0, 1.0 / math.sqrt(rate_dual))
        while True:
            dual_tail = _tail_integral(env_dual, k_cut, d, 0.0, span_dual)
            if dual_tail < tol / 2.0:
                break
            k_cut += 0.25
            if k_cut > k_max:
                raise UnreachableTolerance(
                    f"dual cutoff exceeded budget at tol={tol}")

    direct = enumerate_shells(lat, "direct", r_cut + margin, include_origin=True)
    if len(direct) > shell_budget:
        raise UnreachableTolerance("direct shell count exceeds budget")
    if k_cut > 0.0:
        dual = enumerate_shells(lat, "dual", k_cut, include_origin=False)
        wh, wn, _ = dual.half()
    else:
        wh = np.zeros((0, d))
        wn = np.zeros((0,))

    return EwaldPlan(
        lattice=lat,
        potential=pot,
        eta=float(eta),
        r_cut=float(r_cut),
        k_cut=float(k_cut),
        tol=float(tol),
        direct_tail_bound=float(direct_tail),
        dual_tail_bound=float(dual_tail),
        direct_vectors=direct.vectors,
        dual_vectors_half=wh,
        dual_norms_half=wn,
    )


# ---------------------------------------------------------------------------
# batched evaluation
# ---------------------------------------------------------------------------


def min_image_difference(lat, x, y):
    """Minimum-image Cartesian representative of x - y, sign-canonicalized
    (first nonzero fractional coordinate made positive) so that swapping x
    and y reproduces the identical representative."""
    f = lat.to_fractional(np.asarray(x, float) - np.asarray(y, float))
    f = f - np.round(f)
    nz = np.nonzero(np.abs(f) > 0.0)[0]
    if nz.size and f[nz[0]] < 0.0:
        f = -f
    return lat.to_cartesian(f)


def evaluate_batch(lat, pot, plan, Q, want_grad=False):
    """Kernel values (and gradients) for a batch of Cartesian differences.

    Q has shape (n, d); rows should be min-imaged representatives.  Returns
    (values, grads, degenerate) where grads is None unless requested and
    degenerate marks rows lying on the lattice.  Values at degenerate rows
    are +inf for the singular potentials; gradients there are zero-filled.
    """
    if plan.potential != pot:
        raise PlanMismatch(
            f"plan built for {plan.potential.label}, "
            f"asked to evaluate {pot.label}")
    if plan.lattice is not lat and not np.array_equal(plan.lattice.basis, lat.basis):
        raise PlanMismatch("plan built for a different lattice")
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    n, d = Q.shape
    if d != lat.dimension:
        raise DimensionMismatch("difference vectors have wrong dimension")
    eta = plan.eta

    W = plan.dual_vectors_half
    if W.shape[0]:
        a = pot.dual_coeffs(eta, d)(plan.dual_norms_half)
    terms = pot.direct_terms(eta, want_grad)

    # component-major (d, rows, images) differences keep every inner loop
    # over the long image axis
    VT = np.ascontiguousarray(plan.direct_vectors.T)
    QT = np.ascontiguousarray(Q.T)
    step = max(1, _BLOCK_PAIR_IMAGES // max(VT.shape[1], W.shape[0]))
    values = np.empty(n)
    grads = np.empty((n, d)) if want_grad else None
    degenerate = np.zeros(n, dtype=bool)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        R = QT[:, rows, None] + VT[:, None, :]
        r = np.sqrt(np.einsum("knv,knv->nv", R, R))
        on_lattice = r < _SINGULAR_EPS
        degenerate[rows] = on_lattice.any(axis=1)
        if pot.singular and degenerate[rows].any():
            r[on_lattice] = 1.0  # keeps the terms finite; rows reset below
        t, radial = terms(r)
        values[rows] = t.sum(axis=1)
        if want_grad:
            grads[rows] = np.einsum("nv,knv->nk", radial, R)
        if W.shape[0]:
            phase = 2.0 * math.pi * (Q[rows] @ W.T)
            values[rows] += 2.0 * (np.cos(phase) @ a)
            if want_grad:
                grads[rows] -= 4.0 * math.pi * ((np.sin(phase) * a) @ W)
    values += pot.eta_constant(eta, d)

    if want_grad:
        grads[degenerate] = 0.0
    if pot.singular:
        values[degenerate] = math.inf
    return values, grads, degenerate


def kernel_value(plan, x, y):
    """Periodic kernel of the plan's potential on the plan's lattice at the
    pair (x, y) of Cartesian points; +inf when x - y is a lattice point and
    the potential is singular there."""
    q = min_image_difference(plan.lattice, x, y)
    vals, _, _ = evaluate_batch(plan.lattice, plan.potential, plan, q[None, :])
    return KernelValue(
        value=float(vals[0]),
        abs_err_bound=plan.guaranteed_abs_err,
        terms_direct=plan.terms_direct,
        terms_dual=plan.terms_dual,
    )


def gaussian_kernel(lat, x, y, c, r_cut):
    """Periodic Gaussian kernel: direct sum over |v| <= r_cut (+ cell
    margin), minus (pi/c)^(d/2) when c < 1 (the lattice-average constant);
    no constant when c >= 1.  Always finite."""
    pot = Gaussian(c)
    d = lat.dimension
    margin = lat.half_cell_diameter
    shells = enumerate_shells(lat, "direct", r_cut + margin, include_origin=True)
    q = min_image_difference(lat, x, y)
    r2 = np.sum((q[None, :] + shells.vectors) ** 2, axis=1)
    total = float(np.exp(-c * r2).sum()) + pot.eta_constant(1.0, d)
    env, _ = _direct_envelope(pot, 1.0)
    tail = _tail_integral(env, r_cut, d, margin, 10.0 + 6.0 / math.sqrt(c))
    return KernelValue(
        value=total,
        abs_err_bound=tail,
        terms_direct=len(shells),
        terms_dual=0,
    )


def coulomb_kernel(lat, x, y, plan):
    """Three-dimensional Coulomb kernel in its classical erfc/Gaussian Ewald
    form; agrees with the s = 1 Riesz kernel."""
    if lat.dimension != 3:
        raise DimensionMismatch("Coulomb kernel is specific to d = 3")
    if plan.potential != Riesz(1.0):
        raise PlanMismatch("Coulomb kernel expects a plan for Riesz(1)")
    q = min_image_difference(lat, x, y)
    R = q[None, :] + plan.direct_vectors
    r = np.linalg.norm(R, axis=1)
    if r.min() < _SINGULAR_EPS:
        return KernelValue(math.inf, plan.guaranteed_abs_err,
                           plan.terms_direct, plan.terms_dual)
    eta = plan.eta
    direct = float(np.sum(sc.erfc(math.sqrt(eta) * r) / r))
    W = plan.dual_vectors_half
    kn = plan.dual_norms_half
    coeff = np.exp(-math.pi**2 * kn**2 / eta) / (math.pi * kn**2)
    dual = 2.0 * float(np.cos(2.0 * math.pi * (W @ q)) @ coeff)
    const = Riesz(1.0).eta_constant(eta, 3)
    return KernelValue(direct + dual + const, plan.guaranteed_abs_err,
                       plan.terms_direct, plan.terms_dual)


# ---------------------------------------------------------------------------
# Epstein-Hurwitz zeta and the convergence-factor oracle
# ---------------------------------------------------------------------------


def _shift_constant(s, d):
    """2 pi^(d/2) / (Gamma(s/2) (d - s)): the offset between the Riesz
    kernel and the continued Epstein-Hurwitz zeta."""
    return 2.0 * math.pi ** (d / 2.0) / (math.gamma(s / 2.0) * (d - s))


def epstein_hurwitz_zeta(lat, q, s, tol=1e-12, eta=1.0, plan=None):
    """Analytic continuation of sum_v |q + v|^-s to all s in (0, inf)
    except the pole at s = d, for q not on the lattice."""
    d = lat.dimension
    if abs(s - d) < 1e-10:
        raise PolePoint("Epstein-Hurwitz zeta has its pole at s = d")
    q = np.asarray(q, dtype=float)
    qm = min_image_difference(lat, q, np.zeros(d))
    if np.linalg.norm(qm) < 1e-12:
        raise LatticePoint("q reduces into the lattice")
    if plan is None:
        plan = plan_ewald(lat, Riesz(s), tol, eta)
    vals, _, _ = evaluate_batch(lat, Riesz(s), plan, qm[None, :])
    return float(vals[0]) - _shift_constant(s, d)


def epstein_zeta(lat, s, tol=1e-12):
    """Epstein zeta of the lattice (sum over nonzero v of |v|^-s), continued
    to s != d; the origin term's finite part is removed by hand."""
    d = lat.dimension
    if abs(s - d) < 1e-10:
        raise PolePoint("Epstein zeta has its pole at s = d")
    pot = Riesz(s)
    plan = plan_ewald(lat, pot, tol, 1.0)
    shells = enumerate_shells(lat, "direct", plan.r_cut, include_origin=False)
    t, _ = pot.direct_terms(1.0)(shells.norms)
    direct = float(t.sum())
    a = pot.dual_coeffs(1.0, d)(plan.dual_norms_half)
    dual = 2.0 * float(a.sum())
    return (direct + dual - 1.0 / math.gamma(s / 2.0 + 1.0)
            - _shift_constant(s, d))


def convergence_factor_oracle(lat, q, s, a_sequence):
    """Gaussian-convergence-factor renormalization of the Riesz lattice sum.

    For each a returns sum_v |q+v|^-s exp(-a^2 |q+v|^2) minus the
    renormalization integral
    (pi^(d/2)/Gamma(s/2)) int_0^1 t^(s/2-1) (t + a^2)^(-d/2) dt.
    As a decreases to 0 the values approach the Ewald kernel.
    """
    d = lat.dimension
    q = np.asarray(q, dtype=float)
    qm = min_image_difference(lat, q, np.zeros(d))
    if np.linalg.norm(qm) < 1e-12:
        raise LatticePoint("q reduces into the lattice")
    gs = math.gamma(s / 2.0)
    out = []
    for a in a_sequence:
        if not 0.0 < a <= 1.0:
            raise ValueError("convergence-factor parameters must be in (0, 1]")
        radius = 6.5 / a + lat.half_cell_diameter
        shells = enumerate_shells(lat, "direct", radius, include_origin=True)
        r = np.linalg.norm(qm[None, :] + shells.vectors, axis=1)
        lattice_sum = float(np.sum(r ** (-s) * np.exp(-((a * r) ** 2))))

        def integrand(u):
            # endpoint singularity t^(s/2-1) removed by t = u^(2/s)
            return (u ** (2.0 / s) + a * a) ** (-d / 2.0)

        integral, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-12, limit=200)
        integral *= (2.0 / s) * math.pi ** (d / 2.0) / gs
        out.append(lattice_sum - integral)
    return out

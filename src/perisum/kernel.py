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
(term-wise: each term and coefficient takes Gamma(sigma, .) and its exact
sigma-derivative from one specfun.gamma_upper_dsigma_vec pass), the
logarithmic kernel replaces the gamma terms by E1 and Gamma(d/2, .), and
the Gaussian kernel is an absolutely convergent direct sum minus its
lattice-average constant.

evaluate_batch, the pairwise path (and kernel_value's), makes one pass
over blocks of difference rows, each block holding at most
_BLOCK_PAIR_IMAGES (row, direct image) or (row, dual vector) pairs, so its
memory does not grow with the batch; each row is reduced in an order that
does not depend on the rest of the batch, from terms that each take the
steps of their own band of x in specfun.  So a row gets the same bits in
any batch.  The direct sums (_direct_sums)
take, per pair, the images with |q+v| <= r_cut only: of the images the
plan enumerates, those within r_cut + half_cell_diameter, the rest lie
beyond r_cut, where the plan's bound already covers every point of any
translate of the lattice.  The kept distances, the regularized Q(s/2, eta
r^2), r^-s and exp(-eta r^2) (and, for log-Riesz, log r and the (Gamma,
d/dsigma Gamma) pair) are computed once and serve both the value and the
gradient.  An energy sums the direct part pair by pair through the same
blocks but takes the reciprocal part from structure factors
(_dual_energy), in O(N K) for N points and K dual vectors; both add the
splitting constant the plan holds (EwaldPlan.eta_constant).  Q(1/2, x) =
erfc(sqrt x), the d = 3 Coulomb case, is taken from specfun without
scipy's general incomplete gamma, and so is Q(sigma, x) at 0 < sigma < 1
below x = 1.5, from the power series the pair takes below its series
edge.  kernel_value's bound adds to the plan's
truncation bound the family's rel_accuracy times the sum of |terms|, which
evaluate_batch accumulates in the same pass.

Each potential family (Riesz, LogRiesz, Log, Gaussian) is one frozen
dataclass that owns its split: label (its parse_potential string),
singular, split, direct_terms(eta, r, want_grad), eta_constant(eta, d),
direct_majorant(eta, r0), the majorant the planner bounds the direct tail
with, and direct_grad_majorant(eta, r0), which bounds |g'(r)| for the
gradient's tail.  The three split families (split = True) also have the
reciprocal side, dual_coeffs(eta, d, k), dual_majorant(eta, d, k0) and
dual_grad_majorant(eta, d, k0); the Gaussian (split = False) is absolutely
summable and has none of them.  direct_terms
returns (terms, radial) at the distances r, with radial, the factor g'(r)/r
of each term's gradient radial * (q + v), None unless want_grad;
dual_coeffs returns a(k) at the dual norms k.  Both evaluate their formula
directly on an array or one float, and powers go through np.power, so a
float rounds as an array element does.

plan_ewald certifies its cutoffs in closed form.  Each majorant has the
form A rho^p exp(-alpha rho^2), p <= 0 for the values and p = -1 for the
gradients (+1 for the Gaussian's), and bounds |term| beyond the radius it
is taken at; it follows from Gamma(sigma, x) <= c x^(sigma-1) e^-x
(_gamma_factor) and, for log-Riesz, from log x <= log t <= log x + (t-x)/x
on t >= x.  Counting lattice points by cells of circumradius
half_cell_diameter turns the majorant into a tail bound made of
exponentials and powers (_tail_bound), and each cutoff is found by
bisection on the value's bound; the gradient's bounds are recorded at the
same cutoffs.  Without a given eta, plan_ewald takes the eta whose cost,
counted in closed form from those cutoffs, is least: given the number of
points N (n_points), the cost of one energy, N^2/2 pair-images plus N K/2
structure-factor phases, over 1, 2, 4, ..., 4096; otherwise the per-pair
cost, the direct images plus _DUAL_TERM_COST times the dual terms, over
1, ..., 128; the rungs' cutoffs are bisected to 1e-2, and the chosen
rung's resume from there (_cutoff), so the plan has the bits of a plan
given that eta.  kernel_value(plan, x, y) is the one single-pair entry
point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sc

from . import specfun as sf
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    LatticePoint,
    PlanMismatch,
    PolePoint,
    UnreachableTolerance,
)
from .lattice import Lattice, box_blocks, enumerate_shells, min_dual_norm

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
    "shift_constant",
    "epstein_hurwitz_zeta",
    "epstein_zeta",
    "convergence_factor_oracle",
    "min_image_difference",
]

_SINGULAR_EPS = 1e-13  # |q + v| below this counts as a lattice point
_CUT_MARGIN = 1e-12  # relative slack on r_cut in the direct sums
# rows x images per block of evaluate_batch: bounds its temporaries to
# about 12 MiB whatever the batch size
_BLOCK_PAIR_IMAGES = 1 << 17
# most vectors plan_ewald enumerates for one sum
_SHELL_BUDGET = 500_000
# the splits plan_ewald chooses from when no eta is given: 1, 2, ..., 128
# for one pair, up to 4096 for an energy of n_points points
_ETA_LADDER = tuple(2.0**i for i in range(13))
_PAIR_RUNGS = 8
# the cost of one dual term relative to one direct image in the pairwise
# kernel (evaluate_batch on many rows, measured 0.06-0.32 over the families)
_DUAL_TERM_COST = 0.1
# in an energy, relative to one enumerated pair-image: one kept image's
# direct term and one structure-factor phase (least squares over 1220
# timed energy-and-gradient calls: Z1, Z2, Z3, hex x riesz 0.5, 1, 2.5,
# logriesz 0.5, log x N = 8-128 x eta = 1-4096, tol 1e-12)
_TERM_COST = 2.7
_PHASE_COST = 1.9
_EPS = float(np.finfo(float).eps)


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


def _gamma_factor(sigma, x0):
    """c with Gamma(sigma, x) <= c x^(sigma-1) e^-x for every x >= x0.

    For sigma <= 1, t^(sigma-1) <= x^(sigma-1) on t >= x, so c = 1 (this
    covers E1 and every negative order).  For sigma > 1, Gamma(sigma-1, x)
    <= Gamma(sigma, x)/x in the recurrence Gamma(sigma, x) = x^(sigma-1)
    e^-x + (sigma-1) Gamma(sigma-1, x) gives c = x/(x - sigma + 1), which
    falls with x; it needs x0 > sigma - 1 and is infinite otherwise.
    """
    if sigma <= 1.0:
        return 1.0
    if x0 <= sigma - 1.0:
        return math.inf
    return x0 / (x0 - sigma + 1.0)


def _dsigma_factor(sigma, x0, shift):
    """k with |d/dsigma Gamma(sigma, x) - (log x - shift) Gamma(sigma, x)|
    <= k x^(sigma-1) e^-x for every x >= x0.

    On t >= x, log x <= log t <= log x + (t - x)/x, so d/dsigma Gamma minus
    log x Gamma lies in [0, (Gamma(sigma+1, x) - x Gamma(sigma, x))/x], and
    that is at most x^(sigma-1) e^-x once x >= sigma.
    """
    if x0 < sigma:
        return math.inf
    return 1.0 + abs(shift) * _gamma_factor(sigma, x0)


# ---------------------------------------------------------------------------
# potential families
# ---------------------------------------------------------------------------


def _param_text(x):
    """Shortest text that parses back to the float x, without a trailing
    '.0' (so Riesz(1.0) is 'riesz:1')."""
    return repr(float(x)).removesuffix(".0")


class _Split:
    """What the three split families share: the reciprocal side's gradient
    majorant, 2 pi k times the value majorant, since the gradient of a(|w|)
    cos(2 pi w.q) has norm at most 2 pi |w| |a(|w|)|."""

    split = True

    def dual_grad_majorant(self, eta, d, k0):
        a, power, rate = self.dual_majorant(eta, d, k0)
        return 2.0 * math.pi * a, power + 1.0, rate


@dataclass(frozen=True)
class Riesz(_Split):
    """Inverse-power potential |x|^-s, s > 0."""

    s: float
    singular = True
    # relative accuracy of each term (at x <= 40; test_term_accuracy):
    # gamma_upper_reg_vec (sigma > 0) and gamma_upper_vec (sigma <= 0) are
    # within 3.6e-14 of mpmath, and the terms were measured within 1.1e-14
    rel_accuracy = 4e-14

    def __post_init__(self):
        if not 0.0 < self.s < math.inf:
            raise InvalidParameter("Riesz exponent s must be positive and finite")

    @property
    def label(self):
        return f"riesz:{_param_text(self.s)}"

    def direct_terms(self, eta, r, want_grad=False):
        s = self.s
        sig = 0.5 * s
        r2 = r * r
        x = eta * r2
        # at exponents of a few hundred r^-s passes the double range at the
        # short distances a minimizer's trials reach: the term is then +inf,
        # and an energy with it is rejected
        with np.errstate(over="ignore"):
            rpow = np.power(r, -s)
        t = sf.gamma_upper_reg_vec(sig, x) * rpow
        if not want_grad:
            return t, None
        # radial factor: -(c1 e^-x + s t) / r^2, c1 = 2 eta^(s/2) / Gamma(s/2)
        radial = np.exp(-x)
        radial *= 2.0 * eta**sig / math.gamma(sig)
        # it passes the double range a little before r^-s does
        with np.errstate(over="ignore"):
            radial += s * t
            radial /= r2
        return t, np.negative(radial, out=radial)

    def direct_majorant(self, eta, r0):
        # Gamma(s/2, eta r^2) r^-s / Gamma(s/2) <= c eta^(s/2-1) r^-2 / Gamma(s/2)
        # times exp(-eta r^2)
        sig = 0.5 * self.s
        c = _gamma_factor(sig, eta * r0 * r0)
        return c * eta ** (sig - 1.0) / math.gamma(sig), -2.0, eta

    def direct_grad_majorant(self, eta, r0):
        # |g'(r)| = c1 e^-x / r + s |term| / r, and the direct majorant's
        # r^-3 is at most r^-1 / r0^2 beyond r0
        sig = 0.5 * self.s
        a = self.direct_majorant(eta, r0)[0]
        c1 = 2.0 * eta**sig / math.gamma(sig)
        return c1 + self.s * a / (r0 * r0), -1.0, eta

    def dual_coeffs(self, eta, d, k):
        s = self.s
        pref = math.pi ** (d / 2.0) / math.gamma(s / 2.0)
        z = math.pi**2 * k * k / eta
        power = np.power(math.pi * k, s - d)
        return pref * power * sf.gamma_upper_vec((d - s) / 2.0, z)

    def dual_majorant(self, eta, d, k0):
        # (pi k)^(s-d) Gamma(sig, z) <= c eta^(1-sig) (pi k)^-2 e^-z with
        # z = pi^2 k^2 / eta
        sig = (d - self.s) / 2.0
        rate = math.pi**2 / eta
        c = _gamma_factor(sig, rate * k0 * k0)
        pref = math.pi ** (d / 2.0) / math.gamma(self.s / 2.0)
        return c * pref * eta ** (1.0 - sig) / math.pi**2, -2.0, rate

    def eta_constant(self, eta, d):
        phi = _expm1_over(self.s - d, 0.5 * math.log(eta))
        return 2.0 * math.pi ** (d / 2.0) * phi / math.gamma(self.s / 2.0)


@dataclass(frozen=True)
class LogRiesz(_Split):
    """Potential |x|^-s log(|x|^-2), s > 0: 2 d/ds of the Riesz potential,
    and so are its terms, coefficients and constant."""

    s: float
    singular = True
    # relative accuracy of each term (at x <= 40; test_term_accuracy): the
    # (Gamma, d/dsigma Gamma) pair is within 3e-14 of mpmath, and a term, a
    # difference of Riesz-sized parts, was measured within 8.2e-15 of those
    # parts; the margin covers terms near their zero, where the parts
    # exceed the term
    rel_accuracy = 1e-13

    def __post_init__(self):
        if not 0.0 < self.s < math.inf:
            raise InvalidParameter("LogRiesz exponent s must be positive and finite")

    @property
    def label(self):
        return f"logriesz:{_param_text(self.s)}"

    @functools.cached_property
    def _psi(self):
        """psi(s/2), which every term, coefficient, majorant and the
        constant take: one scipy call per potential, not per use."""
        return sf.digamma(0.5 * self.s)

    def direct_terms(self, eta, r, want_grad=False):
        s = self.s
        sig = 0.5 * s
        gs = math.gamma(sig)
        psi = self._psi
        r2 = r * r
        x = eta * r2
        # t = Q(s/2, x) r^-s and t2 = d/dsigma Gamma r^-s / Gamma(s/2)
        # - (2 log r + psi) t, from one (Gamma, d/dsigma Gamma) pass
        t, t2 = sf.gamma_upper_dsigma_vec(sig, x)
        # where r^-s passes the double range (as in Riesz.direct_terms) the
        # parts of t2 overflow and it takes inf - inf.  There r < 1, where
        # the term is positive (d/dsigma Gamma - (2 log r + psi) Gamma is
        # the integral of t^(sigma-1) e^-t (log(t / r^2) - psi) over t >= x,
        # and both its part at 2 log r = 0 and -2 log r Gamma are positive):
        # the term is +inf, and an energy with it is rejected
        with np.errstate(over="ignore", invalid="ignore"):
            rpow = np.power(r, -s)
            rpow /= gs
            t *= rpow
            t2 *= rpow
            t2 -= 2.0 * np.log(r) * t
            t2 -= psi * t
        overflowed = np.isnan(t2)
        if overflowed.any():
            t2 = np.where(overflowed, np.inf, t2)
        if not want_grad:
            return t2, None
        # 2 d/ds of the Riesz radial factor, with 2 dc1/ds = c1 (log eta - psi)
        radial = np.exp(-x)
        radial *= 2.0 * eta**sig / gs * (math.log(eta) - psi)
        # it passes the double range a little before r^-s does, and takes
        # inf - inf where t2 does
        with np.errstate(over="ignore", invalid="ignore"):
            radial += 2.0 * t
            radial += s * t2
            radial /= r2
        return t2, np.negative(radial, out=radial)

    def direct_majorant(self, eta, r0):
        # the term is r^-s / Gamma(s/2) times d/dsigma Gamma - (log x - shift)
        # Gamma at x = eta r^2, shift = log eta - psi(s/2): the Riesz
        # majorant with _dsigma_factor in place of _gamma_factor
        sig = 0.5 * self.s
        k = _dsigma_factor(sig, eta * r0 * r0, math.log(eta) - self._psi)
        return k * eta ** (sig - 1.0) / math.gamma(sig), -2.0, eta

    def direct_grad_majorant(self, eta, r0):
        # |g'(r)| <= (c1 |log eta - psi| e^-x + 2 |t| + s |t2|) / r with t
        # the Riesz term and t2 this one, each under its direct majorant
        sig = 0.5 * self.s
        riesz = Riesz(self.s).direct_majorant(eta, r0)[0]
        own = self.direct_majorant(eta, r0)[0]
        c1 = 2.0 * eta**sig / math.gamma(sig) * abs(math.log(eta) - self._psi)
        return c1 + (2.0 * riesz + self.s * own) / (r0 * r0), -1.0, eta

    def dual_coeffs(self, eta, d, k):
        s = self.s
        pref = math.pi ** (d / 2.0) / math.gamma(s / 2.0)
        z = math.pi**2 * k * k / eta
        pk = math.pi * k
        power = pref * np.power(pk, s - d)
        g, dg = sf.gamma_upper_dsigma_vec((d - s) / 2.0, z)
        a = power * g
        return 2.0 * a * np.log(pk) - a * self._psi - power * dg

    def dual_majorant(self, eta, d, k0):
        # minus the same bracket at z = (pi k)^2 / eta, with 2 log(pi k) =
        # log z + log eta
        sig = (d - self.s) / 2.0
        rate = math.pi**2 / eta
        k = _dsigma_factor(sig, rate * k0 * k0, math.log(eta) - self._psi)
        pref = math.pi ** (d / 2.0) / math.gamma(self.s / 2.0)
        return k * pref * eta ** (1.0 - sig) / math.pi**2, -2.0, rate

    def eta_constant(self, eta, d):
        s = self.s
        u = s - d
        a = 0.5 * math.log(eta)
        return (4.0 * math.pi ** (d / 2.0) / math.gamma(s / 2.0)
                * (_expm1_over_du(u, a) - 0.5 * _expm1_over(u, a) * self._psi))


@dataclass(frozen=True)
class Log(_Split):
    """Potential log(|x|^-2)."""

    singular = True
    label = "log"
    # relative accuracy of each term (at x <= 40; test_term_accuracy): E1
    # and Gamma(d/2, .) by gammaincc, measured within 1.1e-14
    rel_accuracy = 4e-14

    def direct_terms(self, eta, r, want_grad=False):
        r2 = r * r
        x = eta * r2
        t = sc.exp1(x)
        return t, (-2.0 * np.exp(-x) / r2 if want_grad else None)

    def direct_majorant(self, eta, r0):
        # E1(x) <= e^-x / x
        return 1.0 / eta, -2.0, eta

    def direct_grad_majorant(self, eta, r0):
        # |g'(r)| = 2 e^-x / r exactly
        return 2.0, -1.0, eta

    def dual_coeffs(self, eta, d, k):
        z = math.pi**2 * k * k / eta
        return (sf.gamma_upper_vec(d / 2.0, z)
                / (math.pi ** (d / 2.0) * np.power(k, d)))

    def dual_majorant(self, eta, d, k0):
        # Gamma(d/2, z) / (pi^(d/2) k^d) <= c pi^(d/2-2) eta^(1-d/2) k^-2 e^-z
        rate = math.pi**2 / eta
        c = _gamma_factor(d / 2.0, rate * k0 * k0)
        return c * math.pi ** (d / 2.0 - 2.0) * eta ** (1.0 - d / 2.0), -2.0, rate

    def eta_constant(self, eta, d):
        return -(2.0 / d) * math.pi ** (d / 2.0) * (eta ** (-d / 2.0) - 1.0)


@dataclass(frozen=True)
class Gaussian:
    """Potential exp(-c |x|^2), c > 0: an absolutely convergent direct sum,
    finite at lattice points, with no split and no reciprocal part."""

    c: float
    singular = False
    split = False
    # relative accuracy of each term (at c r^2 <= 40; test_term_accuracy):
    # exp(-c r^2) moves by c r^2 times the rounding of c r^2, measured
    # within 6.2e-15
    rel_accuracy = 1e-14

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise InvalidParameter(
                "Gaussian width parameter c must be positive and finite")

    @property
    def label(self):
        return f"gaussian:{_param_text(self.c)}"

    def direct_terms(self, eta, r, want_grad=False):
        t = np.exp(-self.c * (r * r))
        return t, (-2.0 * self.c * t if want_grad else None)

    def direct_majorant(self, eta, r0):
        return 1.0, 0.0, self.c

    def direct_grad_majorant(self, eta, r0):
        # |g'(r)| = 2 c r exp(-c r^2) exactly; it decreases only beyond
        # r = 1/sqrt(2 c), which _tail_bound checks
        return 2.0 * self.c, 1.0, self.c

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
    potential, eta) combination.  Holds the direct vectors, in the order
    enumerate_shells gives them (origin in the middle), and the half dual
    vectors (one of each sign pair +-w, origin dropped) with their norms
    and coefficients a(w), and the splitting constant eta_constant, the
    potential's eta_constant(eta, d), so repeated evaluations share them.
    The two gradient tail bounds, on the norm of what the cuts leave out of
    a kernel's gradient, are taken at the same r_cut and k_cut;
    to_json_dict leaves them and the constant out."""

    lattice: Lattice
    potential: object
    eta: float
    r_cut: float
    k_cut: float
    tol: float
    direct_tail_bound: float
    dual_tail_bound: float
    direct_grad_tail_bound: float
    dual_grad_tail_bound: float
    eta_constant: float
    direct_vectors: np.ndarray = field(repr=False)
    dual_vectors_half: np.ndarray = field(repr=False)
    dual_norms_half: np.ndarray = field(repr=False)
    dual_coeffs_half: np.ndarray = field(repr=False)

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
    potentials), a bound on its error, and term counts.  The bound is the
    plan's certified truncation error plus the family's rel_accuracy times
    the sum of |terms|, which covers the rounding of the terms and their
    sum."""

    value: float
    abs_err_bound: float
    terms_direct: int
    terms_dual: int


def _ball_volume(d):
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _tail_bound(majorant, radius, cell, d):
    """Upper bound on sum |term(|p|)| over the points p, |p| > radius, of a
    translate of a unit-covolume lattice whose cells have circumradius cell,
    given majorant = (A, power, rate): |term(rho)| <= F(rho) = A rho^power
    exp(-rate rho^2) for rho >= radius.

    The cells centred on the points tile space, so at most V_d (rho +
    cell)^d points lie within rho of the origin, and summation by parts
    bounds the tail by V_d [(R + cell)^d F(R) + d int_R^inf (rho + cell)^(d-1)
    F(rho) drho] wherever F decreases on [R, inf): for every R when power
    <= 0, and from R^2 >= power / (2 rate) when power > 0 (the Gaussian's
    gradient); below that the bound is inf.  Expanding (rho + cell)^(d-1)
    leaves the integrals int_R^inf rho^m e^(-rate rho^2) = Gamma((m+1)/2, x)
    / (2 rate^((m+1)/2)), x = rate R^2, each at most _gamma_factor((m+1)/2,
    x) R^(m-1) e^-x / (2 rate).
    """
    return _tail_bounder(cell, d)(majorant, radius)


def _tail_bounder(cell, d):
    """_tail_bound at one cell and dimension as a function of (majorant,
    radius), with V_d, the binomial-times-cell-power weights of (rho +
    cell)^(d-1) and, per majorant power, the orders and exponents of the
    integrals taken once; every float it returns is the one _tail_bound
    gives."""
    volume = _ball_volume(d)
    weights = [math.comb(d - 1, k) * cell ** (d - 1 - k) for k in range(d)]
    integrals = {}  # power -> [(weight, order (m+1)/2, exponent m-1)]

    def bound(majorant, radius):
        coeff, power, rate = majorant
        x = rate * radius * radius
        if 2.0 * x < power:
            return math.inf
        terms = integrals.get(power)
        if terms is None:
            terms = integrals[power] = [
                (weight, 0.5 * (power + k + 1.0), power + k - 1.0)
                for k, weight in enumerate(weights)]
        inner = 0.0
        for weight, order, exponent in terms:
            if order > 1.0:  # _gamma_factor is 1 up to order 1
                weight *= _gamma_factor(order, x)
            inner += weight * radius**exponent
        return volume * coeff * math.exp(-x) * (
            (radius + cell) ** d * radius**power + d * inner / (2.0 * rate))

    return bound


def _cutoff(tail, target, r_max, which, rel=1e-6, bracket=None):
    """Bisect for the smallest radius (to rel relative) at which tail(radius)
    <= target.  Returns the radius, its tail, and the final bracket (lo,
    hi, tail(hi)).  A NaN or infinite tail counts as missing the target.

    The bisection doubles hi from 1 until its tail meets the target, then
    halves the bracket until hi - lo <= rel hi.  Its states do not depend
    on rel, so a coarse bisection's final bracket is a state of every finer
    one: given as bracket, the bisection resumes there and returns the
    radius a bisection from the start would."""
    if bracket is None:
        lo, hi = 0.0, 1.0
        hi_tail = tail(hi)
        while not hi_tail <= target:
            if hi >= r_max:
                raise UnreachableTolerance(
                    f"{which} cutoff for a tail of {target:g} exceeds the shell budget")
            lo, hi = hi, min(2.0 * hi, r_max)
            hi_tail = tail(hi)
    else:
        lo, hi, hi_tail = bracket
    while hi - lo > rel * hi:
        mid = 0.5 * (lo + hi)
        mid_tail = tail(mid)
        if mid_tail <= target:
            hi, hi_tail = mid, mid_tail
        else:
            lo = mid
    return hi, hi_tail, (lo, hi, hi_tail)


def _rounding_floor(lat, pot, eta):
    """Machine epsilon times an a-priori magnitude of the sum's terms: the
    largest of a real-space term at unit distance (the spacing of a
    unit-covolume lattice), the reciprocal coefficient at the shortest dual
    vector and the splitting constant.  Rounding alone reaches it, so no
    smaller tolerance can be certified."""
    d = lat.dimension
    mags = [abs(float(pot.direct_terms(eta, 1.0)[0])), abs(pot.eta_constant(eta, d))]
    if pot.split:
        mags.append(abs(float(pot.dual_coeffs(eta, d, min_dual_norm(lat)))))
    return _EPS * max(mags)


def _cutoffs(lat, pot, tol, eta, rel=1e-6, brackets=(None, None)):
    """(r_cut, direct tail, k_cut, dual tail) of plan_ewald at one eta, in
    closed form and bisected to rel, without enumerating a vector, and the
    two final brackets, from which a finer bisection at this eta resumes
    (_cutoff); brackets resumes from those of a coarser one."""
    d = lat.dimension
    cell = lat.half_cell_diameter
    # at least V_d r^d vectors lie within r + cell (their cells cover the
    # ball of radius r), and at least V_d (k - dual cell)^d - 1 nonzero dual
    # vectors within k
    r_max = (_SHELL_BUDGET / _ball_volume(d)) ** (1.0 / d)

    bound = _tail_bounder(cell, d)
    r_cut, direct_tail, direct_bracket = _cutoff(
        lambda r: bound(pot.direct_majorant(eta, r), r),
        tol / 2.0, r_max, "direct", rel, brackets[0])
    k_cut = dual_tail = 0.0
    dual_bracket = None
    if pot.split:
        dual_cell = lat.dual_half_cell_diameter
        bound = _tail_bounder(dual_cell, d)
        k_cut, dual_tail, dual_bracket = _cutoff(
            lambda k: bound(pot.dual_majorant(eta, d, k), k),
            tol / 2.0, r_max + dual_cell, "dual", rel, brackets[1])
    return r_cut, direct_tail, k_cut, dual_tail, (direct_bracket, dual_bracket)


def _cheapest_eta(lat, pot, tol, n_points=None):
    """The eta of _ETA_LADDER whose plan costs least, from cutoffs counted in
    closed form (V_d, common to every count, is dropped), and the final
    brackets of its cutoffs' bisections, from which plan_ewald resumes.

    Without n_points the cost is per pair, over the first _PAIR_RUNGS
    rungs: D + _DUAL_TERM_COST K, with D = (r_cut + cell)^d direct images
    and K = k_cut^d dual terms.  With n_points = N it is one energy
    evaluation: P [(r_cut + cell)^d + _TERM_COST r_cut^d] + _PHASE_COST N
    k_cut^d / 2 over P = N(N-1)/2 pairs, the pair-images whose |q+v|^2
    _direct_sums builds, the kept ones it evaluates direct_terms on, and
    the structure-factor phases of _dual_energy; the walk then stops once
    the cost has risen on two rungs in a row.  The cutoffs are bisected to
    1e-2 only: the rungs' costs differ by far more.  A rung whose cutoff is
    out of reach or whose tail bound overflows (exponents s of a few
    hundred), or that lies below its own rounding floor, is skipped
    (the floors are taken cheapest rung first, so usually once); if every
    rung is, the answer is 1, whose plan then raises, with no brackets."""
    d = lat.dimension
    cell = lat.half_cell_diameter
    costs = []
    brackets = {}
    rises = 0
    ladder = _ETA_LADDER if n_points is not None else _ETA_LADDER[:_PAIR_RUNGS]
    for eta in ladder:
        try:
            r_cut, _, k_cut, _, brackets[eta] = _cutoffs(lat, pot, tol, eta, rel=1e-2)
        except (UnreachableTolerance, OverflowError):
            continue
        if n_points is None:
            cost = (r_cut + cell) ** d + _DUAL_TERM_COST * k_cut**d
        else:
            pairs = 0.5 * n_points * (n_points - 1)
            cost = (pairs * ((r_cut + cell) ** d + _TERM_COST * r_cut**d)
                    + 0.5 * _PHASE_COST * n_points * k_cut**d)
            rises = rises + 1 if costs and cost > costs[-1][0] else 0
        costs.append((cost, eta))
        if rises == 2:
            break
    for _, eta in sorted(costs):
        if tol >= _rounding_floor(lat, pot, eta):
            return eta, brackets[eta]
    return 1.0, (None, None)


def plan_ewald(lat, pot, tol, eta=None, *, n_points=None):
    """Choose truncation radii whose certified tail bounds are each at most
    tol/2.

    The plan enumerates every lattice vector with |v| <= r_cut +
    half_cell_diameter.  A min-imaged difference q has |q| <=
    half_cell_diameter, so these include every image with |q + v| <=
    r_cut, and the direct sums take, per pair, exactly those images
    (_direct_sums); _tail_bound of the family's direct majorant at r_cut
    bounds the sum over the rest.  The dual sum keeps every nonzero w with
    |w| <= k_cut and is bounded the same way on the dual lattice, with its
    own cell and no shift.  Both bounds are closed forms; each cutoff is
    the bisected smallest radius whose bound is at most tol/2, and the plan
    records those bounds, and the gradient tail bounds of the families'
    gradient majorants at the same cutoffs.

    eta=None lets a cost model choose the split (_cheapest_eta), from
    counts taken in closed form from the cutoffs, so only the chosen eta
    enumerates vectors.  n_points, the number of points of the energies the
    plan is for, describes the input: with it the model prices one energy
    evaluation over eta = 1, 2, 4, ..., 4096 (the direct part costs N^2,
    the structure factors N, so the best eta grows with N); without it, it
    prices one pair over eta = 1, ..., 128, the fewest direct images plus
    _DUAL_TERM_COST times the dual terms.  The Gaussian, which has no dual
    part, keeps eta = 1.  A given eta is used as it is, whatever n_points.

    tol must be finite and positive and no smaller than the rounding floor
    of the sum (_rounding_floor); eta must be finite and positive, and
    n_points an integer of at least 2.  A cutoff that would put more than
    _SHELL_BUDGET vectors inside its radius, or a term magnitude or bound
    beyond double precision (exponents of a few hundred), raises
    UnreachableTolerance before any vector is enumerated, and a shell walk
    whose integer box exceeds 2e7 points (a skewed basis) raises
    InvalidParameter before building it.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParameter(f"tol must be a positive finite number, got {tol}")
    if n_points is not None and not (
            isinstance(n_points, (int, np.integer)) and n_points >= 2):
        raise InvalidParameter(
            f"n_points must be an integer of at least 2, got {n_points!r}")
    brackets = (None, None)
    if eta is None:
        if pot.split:
            eta, brackets = _cheapest_eta(lat, pot, tol, n_points)
        else:
            eta = 1.0
    if not (math.isfinite(eta) and eta > 0.0):
        raise InvalidParameter(f"eta must be a positive finite number, got {eta}")
    d = lat.dimension
    cell = lat.half_cell_diameter
    try:
        floor = _rounding_floor(lat, pot, eta)
        if tol < floor:
            raise UnreachableTolerance(
                f"tol={tol:g} is below the rounding floor {floor:.2g} of the sum")
        r_cut, direct_tail, k_cut, dual_tail, _ = _cutoffs(lat, pot, tol, eta,
                                                           brackets=brackets)
        direct_grad_tail = _tail_bound(pot.direct_grad_majorant(eta, r_cut),
                                       r_cut, cell, d)
        dual_grad_tail = 0.0
        if pot.split:
            dual_grad_tail = _tail_bound(pot.dual_grad_majorant(eta, d, k_cut),
                                         k_cut, lat.dual_half_cell_diameter, d)
    except OverflowError:
        raise UnreachableTolerance(
            f"the terms or bounds of {pot.label} at eta={eta:g} overflow "
            "double precision") from None

    direct = enumerate_shells(lat, "direct", r_cut + cell)
    if len(direct) > _SHELL_BUDGET:
        raise UnreachableTolerance("direct shell count exceeds budget")
    dual = enumerate_shells(lat, "dual", k_cut)
    wh = dual[len(dual) // 2 + 1:]  # one of each sign pair, no origin
    wn = np.linalg.norm(wh, axis=1)
    wa = pot.dual_coeffs(eta, d, wn) if pot.split else np.zeros(0)

    return EwaldPlan(
        lattice=lat,
        potential=pot,
        eta=float(eta),
        r_cut=float(r_cut),
        k_cut=float(k_cut),
        tol=float(tol),
        direct_tail_bound=float(direct_tail),
        dual_tail_bound=float(dual_tail),
        direct_grad_tail_bound=float(direct_grad_tail),
        dual_grad_tail_bound=float(dual_grad_tail),
        eta_constant=pot.eta_constant(float(eta), d),
        direct_vectors=direct,
        dual_vectors_half=wh,
        dual_norms_half=wn,
        dual_coeffs_half=wa,
    )


# ---------------------------------------------------------------------------
# batched evaluation
# ---------------------------------------------------------------------------


def min_image_difference(lat, x, y):
    """Minimum-image Cartesian representative of x - y, sign-canonicalized
    (first nonzero fractional coordinate made positive) so that swapping x
    and y reproduces the identical representative.  x and y are points or
    (..., d) batches, taken row by row.  Non-finite points raise
    InvalidParameter."""
    diff = np.asarray(x, float) - np.asarray(y, float)
    if not np.all(np.isfinite(diff)):
        raise InvalidParameter("points must be finite")
    f = lat.to_fractional(diff)
    f = f - np.round(f)
    first = np.take_along_axis(f, np.argmax(f != 0.0, axis=-1)[..., None], -1)
    f = np.where(first < 0.0, -f, f)
    return lat.to_cartesian(f)


def _check_plan(lat, pot, plan):
    """Refuse a plan built for another potential or lattice."""
    if plan.potential != pot:
        raise PlanMismatch(
            f"plan built for {plan.potential.label}, "
            f"asked to evaluate {pot.label}")
    if plan.lattice is not lat and not np.array_equal(plan.lattice.basis, lat.basis):
        raise PlanMismatch("plan built for a different lattice")


def _direct_sums(plan, Q, want_grad=False, abs_sums=None):
    """Direct-space sums of the plan's potential at the rows of Q, shape
    (n, d): (values, grads, degenerate).

    values and grads hold each row's sum, per pair, over the images with
    |q + v| <= r_cut of the terms and of their gradients; degenerate marks
    rows lying on the lattice, found among those images (an image with
    |q + v| < _SINGULAR_EPS lies far inside r_cut), whose sums are
    meaningless for the singular families.  abs_sums, if given, receives
    each row's sum of |terms|.  The plan's direct bound covers every point
    of any translate of the lattice beyond r_cut, so the images it
    enumerates out to r_cut + half_cell_diameter (one enumeration serves
    every q) that lie beyond r_cut need no term.  Rows go in blocks of at
    most _BLOCK_PAIR_IMAGES (row, image) pairs; a block's kept pairs form
    one flat list for direct_terms, and np.bincount sums them per row in
    image order, so a row's sums do not depend on the other rows.
    """
    n, d = Q.shape
    pot = plan.potential
    # component-major (d, rows, images) differences keep every inner loop
    # over the long image axis
    VT = np.ascontiguousarray(plan.direct_vectors.T)
    QT = np.ascontiguousarray(Q.T)
    # the relative margin keeps every image whose |q + v| rounds to just
    # above r_cut, so each image left out lies beyond r_cut
    cut2 = (plan.r_cut * (1.0 + _CUT_MARGIN)) ** 2
    step = max(1, _BLOCK_PAIR_IMAGES // VT.shape[1])
    values = np.empty(n)
    grads = np.empty((n, d)) if want_grad else None
    degenerate = np.zeros(n, dtype=bool)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        R = QT[:, rows, None] + VT[:, None, :]
        r2 = np.einsum("knv,knv->nv", R, R)
        nb, n_images = r2.shape
        # flat indices of the kept (row, image) pairs, in row-major order
        kept = np.flatnonzero(r2 <= cut2)
        row = kept // n_images
        r2_kept = r2.take(kept)
        on_lattice = r2_kept < _SINGULAR_EPS**2
        if on_lattice.any():
            degenerate[lo + row[on_lattice]] = True
            if pot.singular:  # callers reset these rows
                off = ~on_lattice
                kept, row, r2_kept = kept[off], row[off], r2_kept[off]
        t, radial = pot.direct_terms(plan.eta, np.sqrt(r2_kept), want_grad)
        values[rows] = np.bincount(row, t, nb)
        if abs_sums is not None:
            abs_sums[rows] = np.bincount(row, np.abs(t), nb)
        if want_grad:
            # radial factors beyond double range make inf and 0 * inf
            with np.errstate(over="ignore", invalid="ignore"):
                for c in range(d):
                    grads[rows, c] = np.bincount(
                        row, R[c].take(kept) * radial, nb)
        # freed before the next block is built, so no two blocks coexist
        del R, r2, kept, row, r2_kept, t, radial
    return values, grads, degenerate


def evaluate_batch(lat, pot, plan, Q, want_grad=False, abs_sums=None):
    """Kernel values (and gradients) for a batch of Cartesian differences,
    pair by pair: per pair, the direct images with |q+v| <= r_cut, and
    every dual vector of the plan.

    Q has shape (n, d); rows should be min-imaged representatives.  Returns
    (values, grads, degenerate) where grads is None unless requested and
    degenerate marks rows lying on the lattice.  Values at degenerate rows
    are +inf for the singular potentials; gradients there are zero-filled.
    An array abs_sums of shape (n,) receives, in the same pass, each row's
    sum of |terms| (direct terms, dual terms and the constant; 0 at
    degenerate rows), which bounds the rounding of the value through the
    family's rel_accuracy.  Every row is reduced in an order that does not
    depend on the other rows of the batch, so a row's result has the same
    bits whichever batch it is evaluated in.
    """
    _check_plan(lat, pot, plan)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    n, d = Q.shape
    if d != lat.dimension:
        raise DimensionMismatch("difference vectors have wrong dimension")
    values, grads, degenerate = _direct_sums(plan, Q, want_grad, abs_sums)

    W = plan.dual_vectors_half
    if W.shape[0]:
        a = plan.dual_coeffs_half
        WT = np.ascontiguousarray(W.T)
        step = max(1, _BLOCK_PAIR_IMAGES // W.shape[0])
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            # elementwise products reduced along each row's own contiguous
            # axis: a matrix product would take a block through gemm and a
            # single row through gemv, which sum in different orders
            phase = 2.0 * math.pi * sum(Q[rows, c, None] * WT[c]
                                        for c in range(d))
            cos_a = np.cos(phase) * a
            values[rows] += 2.0 * cos_a.sum(axis=1)
            if abs_sums is not None:
                abs_sums[rows] += 2.0 * np.abs(cos_a).sum(axis=1)
            if want_grad:
                sin_a = np.sin(phase) * a
                for c in range(d):
                    grads[rows, c] -= 4.0 * math.pi * (sin_a * WT[c]).sum(axis=1)
    const = plan.eta_constant
    values += const

    if abs_sums is not None:
        abs_sums += abs(const)
        abs_sums[degenerate] = 0.0
    if want_grad:
        grads[degenerate] = 0.0
    if pot.singular:
        values[degenerate] = math.inf
    return values, grads, degenerate


def _dual_energy(plan, X, want_grad=False):
    """Reciprocal part of the energy of the Cartesian points X, shape (N, d),
    summed over the N(N-1) ordered pairs, from structure factors.

    With S(w) = sum_j exp(2 pi i w.x_j) over the plan's half dual vectors w
    and a(w) the plan's coefficient, the part is 2 sum_w a(w) (|S(w)|^2 -
    N), in O(N K) operations instead of the O(N^2 K) of the pairs.  Returns
    (energy, grad); grad, the Cartesian gradient with respect to each point,
    is 8 pi sum_w a(w) (Im S cos phi_j - Re S sin phi_j) w with phi_j = 2 pi
    w.x_j, and None unless requested.  The N x K phase arrays are built in
    blocks of at most _BLOCK_PAIR_IMAGES entries.
    """
    n, d = X.shape
    grad = np.zeros((n, d)) if want_grad else None
    W = plan.dual_vectors_half
    if not W.shape[0]:
        return 0.0, grad
    a = plan.dual_coeffs_half
    X2pi = 2.0 * math.pi * X
    step = max(1, _BLOCK_PAIR_IMAGES // n)
    energy = 0.0
    for lo in range(0, W.shape[0], step):
        cols = slice(lo, lo + step)
        phase = X2pi @ W[cols].T
        cos, sin = np.cos(phase), np.sin(phase)
        s_re, s_im = cos.sum(axis=0), sin.sum(axis=0)
        ac = a[cols]
        energy += 2.0 * float(ac @ (s_re * s_re + s_im * s_im - n))
        if want_grad:
            cos *= ac * s_im
            sin *= ac * s_re
            cos -= sin
            grad += 8.0 * math.pi * (cos @ W[cols])
    return energy, grad


def kernel_value(plan, x, y):
    """Periodic kernel of the plan's potential on the plan's lattice at the
    pair (x, y) of Cartesian points; +inf when x - y is a lattice point and
    the potential is singular there."""
    q = min_image_difference(plan.lattice, x, y)
    sums = np.empty(1)
    vals, _, _ = evaluate_batch(plan.lattice, plan.potential, plan, q[None, :],
                                abs_sums=sums)
    return KernelValue(
        value=float(vals[0]),
        abs_err_bound=plan.guaranteed_abs_err
        + plan.potential.rel_accuracy * float(sums[0]),
        terms_direct=plan.terms_direct,
        terms_dual=plan.terms_dual,
    )


def coulomb_kernel(lat, x, y, plan):
    """Three-dimensional Coulomb kernel in its classical erfc/Gaussian Ewald
    form; agrees with the s = 1 Riesz kernel."""
    if lat.dimension != 3:
        raise DimensionMismatch("Coulomb kernel is specific to d = 3")
    _check_plan(lat, Riesz(1.0), plan)
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


def shift_constant(s, d):
    """2 pi^(d/2) / (Gamma(s/2) (s - d)): the configuration-independent
    offset from the Riesz kernel to the continued Epstein-Hurwitz zeta, and
    so, for s > d, from the kernel to the convergent direct sum."""
    return 2.0 * math.pi ** (d / 2.0) / (math.gamma(s / 2.0) * (s - d))


def epstein_hurwitz_zeta(lat, q, s, tol=1e-12):
    """Analytic continuation of sum_v |q + v|^-s to all s in (0, inf)
    except the pole at s = d, for q not on the lattice: the Riesz kernel,
    split at eta = 1, plus shift_constant(s, d)."""
    d = lat.dimension
    if abs(s - d) < 1e-10:
        raise PolePoint("Epstein-Hurwitz zeta has its pole at s = d")
    q = np.asarray(q, dtype=float)
    qm = min_image_difference(lat, q, np.zeros(d))
    if np.linalg.norm(qm) < 1e-12:
        raise LatticePoint("q reduces into the lattice")
    plan = plan_ewald(lat, Riesz(s), tol, 1.0)
    vals, _, _ = evaluate_batch(lat, Riesz(s), plan, qm[None, :])
    return float(vals[0]) + shift_constant(s, d)


def epstein_zeta(lat, s, tol=1e-12):
    """Epstein zeta of the lattice (sum over nonzero v of |v|^-s), continued
    to s != d; the plan's direct vectors but the middle one, the origin,
    are summed and the origin term's finite part is removed by hand."""
    d = lat.dimension
    if abs(s - d) < 1e-10:
        raise PolePoint("Epstein zeta has its pole at s = d")
    pot = Riesz(s)
    plan = plan_ewald(lat, pot, tol, 1.0)
    v = np.delete(plan.direct_vectors, len(plan.direct_vectors) // 2, axis=0)
    t, _ = pot.direct_terms(1.0, np.linalg.norm(v, axis=1))
    direct = float(t.sum())
    dual = 2.0 * float(plan.dual_coeffs_half.sum())
    return (direct + dual - 1.0 / math.gamma(s / 2.0 + 1.0)
            + shift_constant(s, d))


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
    # imported here: scipy.integrate stays off the import path of perisum
    from scipy.integrate import quad

    gs = math.gamma(s / 2.0)
    out = []
    for a in a_sequence:
        if not 0.0 < a <= 1.0:
            raise ValueError("convergence-factor parameters must be in (0, 1]")
        radius = 6.5 / a + lat.half_cell_diameter
        partials = []
        for v in box_blocks(lat, "direct", radius):
            r2 = sum((qi + c) ** 2 for qi, c in zip(qm, v))
            partials.append(float(np.sum(r2 ** (-s / 2.0) * np.exp(-(a * a) * r2))))
        lattice_sum = math.fsum(partials)

        def integrand(u):
            # endpoint singularity t^(s/2-1) removed by t = u^(2/s)
            return (u ** (2.0 / s) + a * a) ** (-d / 2.0)

        integral, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12, limit=200)
        integral *= (2.0 / s) * math.pi ** (d / 2.0) / gs
        out.append(lattice_sum - integral)
    return out

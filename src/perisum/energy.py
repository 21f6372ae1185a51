"""Periodic energies of point configurations and their minimization.

A configuration is N points in fractional coordinates on the torus; its
energy is the sum of the periodic kernel over ordered point pairs.  The
direct part and the splitting constant are summed pair by pair; the
reciprocal part is 2 sum_w a(w) (|S(w)|^2 - N) with the structure factors
S(w) = sum_j exp(2 pi i w.x_j), which costs O(N K) instead of O(N^2 K),
and is what lets the planner's default eta move work from the direct to
the reciprocal sum.  The gradient is taken with respect to the fractional
coordinates (chain rule through the lattice basis), which is also the
parametrization the L-BFGS minimizer works in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernel as kn
from .errors import InvalidN, InvalidParameter
from .lattice import Lattice

__all__ = [
    "Configuration",
    "EnergyReport",
    "MinimizeResult",
    "GrowthRow",
    "total_energy",
    "minimize",
    "growth_diagnostic",
]

_JITTER_GAP = 1e-6     # fractional pair distance that triggers start jitter


@dataclass
class Configuration:
    """N points in fractional coordinates [0,1)^d on a lattice torus."""

    lattice: Lattice
    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] < 1:
            raise InvalidN("configuration needs at least one point")
        if pts.ndim > 2 or pts.shape[1] != self.lattice.dimension:
            raise InvalidParameter("points must be an N x d array for the "
                                   "lattice's dimension d")
        if not np.all(np.isfinite(pts)):
            raise InvalidParameter("points must be finite")
        self.points = self.lattice.reduce_frac(pts)

    @property
    def n_points(self):
        return self.points.shape[0]

    @classmethod
    def random(cls, lat, n, rng):
        return cls(lat, rng.random((n, lat.dimension)))

    @classmethod
    def equally_spaced(cls, lat, n):
        if lat.dimension != 1:
            raise ValueError("equally_spaced is one-dimensional")
        return cls(lat, (np.arange(n, dtype=float) / n)[:, None])

    @classmethod
    def lattice_refinement(cls, lat, m):
        """The m-fold refinement of the lattice inside the cell: m^d points
        at fractional coordinates k/m."""
        d = lat.dimension
        axes = [np.arange(m, dtype=float) / m] * d
        grid = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grid], axis=1)
        return cls(lat, pts)

    def cartesian(self):
        return self.lattice.to_cartesian(self.points)

    def translated(self, t_frac):
        return Configuration(self.lattice, self.points + np.asarray(t_frac))


@dataclass
class EnergyReport:
    """Energy value with diagnostics.  gradient is with respect to the
    fractional coordinates and is None when the energy is infinite.
    abs_err_bound is N(N-1) times the plan's bound on each kernel value's
    truncation error.  grad_abs_err_bound bounds each entry's truncation
    error: a point's Cartesian gradient sums 2 grad K over N - 1 partners,
    each off by at most the plan's two gradient tail bounds, and a
    fractional entry is its dot product with a column of the basis."""

    energy: float
    gradient: np.ndarray | None
    degenerate_pairs: list
    plan: kn.EwaldPlan
    abs_err_bound: float
    grad_abs_err_bound: float


@dataclass
class MinimizeResult:
    """Best restart of a minimization, with the plan every restart used.
    converged is the best restart's; restart_energies, restart_converged
    and restart_iters (L-BFGS iterations) hold every restart in order."""

    best_config: Configuration
    best_energy: float
    restarts_used: int
    converged: bool
    plan: kn.EwaldPlan
    trajectory_summary: list = field(default_factory=list)
    restart_energies: list = field(default_factory=list)
    restart_converged: list = field(default_factory=list)
    restart_iters: list = field(default_factory=list)


@dataclass
class GrowthRow:
    """One row of the growth table: minimized energy and the normalizations
    used to read off asymptotic rates, with the plan the minimization used."""

    n: int
    energy: float
    per_n2: float
    per_n_power: float
    per_n2_log: float
    plan: kn.EwaldPlan = field(repr=False)


@functools.lru_cache(maxsize=4)
def _pair_indices(n):
    """The read-only index arrays (j, k) of the pairs j < k of n points,
    built once per n: a minimization asks for the same n on every call."""
    j, k = np.triu_indices(n, 1)
    j.flags.writeable = k.flags.writeable = False
    return j, k


def _pair_differences(cfg):
    """Min-imaged Cartesian differences x_j - x_k for all pairs j < k."""
    f = cfg.points
    j, k = _pair_indices(f.shape[0])
    dfrac = f[j] - f[k]
    dfrac -= np.round(dfrac)
    return j, k, cfg.lattice.to_cartesian(dfrac)


def total_energy(cfg, pot, plan, with_gradient=False):
    """Periodic energy: kernel summed over the N(N-1) ordered pairs.

    The direct sums and the splitting constant are taken pair by pair
    (twice the sum over unordered pairs); the reciprocal part comes from
    the structure factors S(w) in O(N K) (kernel._dual_energy), so no pair
    meets a dual vector."""
    lat = cfg.lattice
    kn._check_plan(lat, pot, plan)
    n = cfg.n_points
    if n == 1:
        grad = np.zeros_like(cfg.points) if with_gradient else None
        return EnergyReport(0.0, grad, [], plan, 0.0, 0.0)
    bound = n * (n - 1) * plan.guaranteed_abs_err
    grad_bound = (2.0 * (n - 1) * lat.max_generator_norm
                  * (plan.direct_grad_tail_bound + plan.dual_grad_tail_bound))
    j, k, Q = _pair_differences(cfg)
    direct, grads, degen = kn._direct_sums(plan, Q, with_gradient)
    degenerate_pairs = []
    if degen.any():
        degenerate_pairs = [(int(a), int(b)) for a, b in zip(j[degen], k[degen])]
        if pot.singular:
            return EnergyReport(math.inf, None, degenerate_pairs, plan, bound,
                                grad_bound)
        if with_gradient:
            grads[degen] = 0.0
    dual, gradient = kn._dual_energy(plan, cfg.cartesian(), with_gradient)
    # the constant joins each pair's direct sum before the pairs are summed,
    # as in the pairwise kernel: for the Gaussian it nearly cancels them
    direct += plan.eta_constant
    energy = 2.0 * float(direct.sum()) + dual
    if with_gradient:
        # pair term 2 D(x_j - x_k): +2 grad to row j, -2 grad to row k, on
        # top of the reciprocal gradient; then the chain rule into
        # fractional coordinates
        ends = np.concatenate([j, k])
        pair_grads = 2.0 * np.concatenate([grads, -grads])
        for c in range(lat.dimension):
            gradient[:, c] += np.bincount(ends, pair_grads[:, c], n)
        gradient = gradient @ lat.basis
    return EnergyReport(energy, gradient, degenerate_pairs, plan, bound,
                        grad_bound)


def _jitter_degenerate(lat, pts, rng):
    """Displace points of any too-close pair so descent starts finite."""
    n = pts.shape[0]
    j, k = _pair_indices(n)
    for _ in range(40):
        dfrac = pts[j] - pts[k]
        dfrac -= np.round(dfrac)
        close = np.linalg.norm(dfrac, axis=1) < _JITTER_GAP
        if not close.any():
            return pts
        bad = np.unique(np.concatenate([j[close], k[close]]))
        pts = pts.copy()
        pts[bad] = lat.reduce_frac(
            pts[bad] + rng.uniform(-0.05, 0.05, size=(bad.size, pts.shape[1])))
    return pts


def _relax(plan, pts0, max_iters, tol_grad):
    """L-BFGS (Liu & Nocedal 1989) on the flattened fractional coordinates.

    The energy is periodic, so the iterates are never reduced mid-run
    (Configuration reduces each trial on its own); only the returned points
    are.  Returns (points, energy, converged, energy_trajectory); the
    trajectory is the start energy, then the energy after each iteration,
    and the line search's sufficient-decrease test keeps it non-increasing.
    With max_iters < 1, or when the run ends on a trial it rejected, the
    start comes back unrelaxed and not converged.
    """
    lat, pot = plan.lattice, plan.potential
    if max_iters < 1:
        e = total_energy(Configuration(lat, pts0), pot, plan).energy
        return lat.reduce_frac(pts0), e, False, [e]
    # imported here: scipy.optimize stays off the import path of perisum
    from scipy.optimize import minimize as scipy_minimize

    shape = pts0.shape
    traj = []
    last = [None]

    def energy_and_gradient(x):
        # a trial beyond double range (a step along gradients of ~1e199 at
        # exponents of a few hundred) is no configuration
        e = math.inf
        if np.isfinite(x).all():
            rep = total_energy(Configuration(lat, x.reshape(shape)), pot, plan,
                               with_gradient=True)
            e = rep.energy
        last[0] = e
        if not traj:
            traj.append(e)
        if not math.isfinite(e) or rep.gradient is None:
            # a coincident pair, or terms beyond double precision (r^-s at
            # exponents of a few hundred): +inf fails every sufficient-
            # decrease test, so the line search never accepts this trial
            return math.inf, np.zeros(x.size)
        return e, rep.gradient.ravel()

    # L-BFGS-B calls back after each iteration with the iterate it last
    # evaluated; a one-argument callback gets it as an ndarray on every
    # supported scipy, so the energy is taken from that last evaluation
    res = scipy_minimize(
        energy_and_gradient, pts0.ravel(), jac=True, method="L-BFGS-B",
        callback=lambda xk: traj.append(last[0]),
        options={"maxcor": 20, "gtol": tol_grad, "ftol": 0.0,
                 "maxiter": max_iters})
    e = float(res.fun)
    if not math.isfinite(e):
        # L-BFGS-B can end on a rejected trial (a step along gradients near
        # the double limit): return the start, which the first evaluation
        # priced
        return lat.reduce_frac(pts0), traj[0], False, traj[:1]
    gnorm = float(np.max(np.abs(res.jac)))
    # decided from the returned gradient, never from scipy's status, which
    # can report convergence after a +inf trial far from any minimum.  A
    # run that stops before max_iters has met gtol or found no certifiable
    # descent left at double precision; the latter counts when the gradient
    # sits at the fp floor of the energy.
    converged = (res.nit < max_iters and math.isfinite(e)
                 and gnorm < max(tol_grad, 1e-7 * (1.0 + abs(e))))
    return lat.reduce_frac(res.x.reshape(shape)), e, converged, traj


def minimize(lat, pot, n, restarts=4, max_iters=2000, seed=0, tol_grad=None,
             tol=1e-12, keep_trajectory=False):
    """Local minimization of the periodic energy with random restarts.

    Start 0 is the m-fold lattice refinement when n = m^d, the remaining
    starts are uniform on the torus; each restart has its own deterministic
    substream of the seed.  The winner is the lowest energy, ties broken by
    restart index.  The plan's eta is priced for energies of n points.
    """
    if n < 2:
        raise InvalidN("minimize needs at least two points")
    return _minimize_on(kn.plan_ewald(lat, pot, tol, n_points=n), n, restarts,
                        max_iters, seed, tol_grad, keep_trajectory)


def _minimize_on(plan, n, restarts=4, max_iters=2000, seed=0, tol_grad=None,
                 keep_trajectory=False):
    """minimize with every restart on a given plan, which also fixes the
    lattice and the potential."""
    if n < 2:
        raise InvalidN("minimize needs at least two points")
    if restarts < 1:
        raise InvalidParameter(f"restarts must be at least 1, got {restarts}")
    if seed < 0:
        raise InvalidParameter(f"seed must be non-negative, got {seed}")
    lat, pot = plan.lattice, plan.potential
    d = lat.dimension
    if tol_grad is None:
        tol_grad = 1e-8 * n * n
    m = round(n ** (1.0 / d))
    structured = m**d == n

    best = None
    restart_energies = []
    restart_converged = []
    restart_iters = []
    best_traj = []
    for idx in range(restarts):
        rng = np.random.default_rng([seed, idx])
        if idx == 0 and structured:
            pts = Configuration.lattice_refinement(lat, m).points
        else:
            pts = rng.random((n, d))
        pts = _jitter_degenerate(lat, pts, rng)
        pts, e, conv, traj = _relax(plan, pts, max_iters, tol_grad)
        restart_energies.append(e)
        restart_converged.append(conv)
        restart_iters.append(len(traj) - 1)
        if best is None or e < best[0]:
            best = (e, idx, pts, conv)
            best_traj = traj
    e, _, pts, conv = best
    return MinimizeResult(
        best_config=Configuration(lat, pts),
        best_energy=e,
        restarts_used=restarts,
        converged=conv,
        plan=plan,
        trajectory_summary=best_traj if keep_trajectory else [],
        restart_energies=restart_energies,
        restart_converged=restart_converged,
        restart_iters=restart_iters,
    )


def growth_diagnostic(lat, pot, n_list, tol=1e-12, **opts):
    """Minimize at each N on one plan and tabulate the normalized energies
    (E, E/N^2, E/N^(1+s/d), E/(N^2 log N)), each row with that plan.  opts
    are minimize's other options.  The power column uses the potential's
    exponent s and is NaN for families without one."""
    if list(n_list) != sorted(n_list):
        raise InvalidParameter(f"n_list must be increasing, got {list(n_list)}")
    d = lat.dimension
    s = getattr(pot, "s", None)
    plan = kn.plan_ewald(lat, pot, tol)
    rows = []
    for n in n_list:
        e = _minimize_on(plan, n, **opts).best_energy
        per_power = e / n ** (1.0 + s / d) if s is not None else math.nan
        per_log = e / (n * n * math.log(n)) if n > 1 else math.nan
        rows.append(GrowthRow(n, e, e / (n * n), per_power, per_log, plan))
    return rows

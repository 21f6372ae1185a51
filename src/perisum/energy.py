"""Periodic energies of point configurations and torus-constrained descent.

A configuration is N points in fractional coordinates on the torus; its
energy is the sum of the periodic kernel over ordered point pairs.  The
gradient is taken with respect to the fractional coordinates (chain rule
through the lattice basis), which is also the parametrization the
projected-descent minimizer works in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernel as kn
from .errors import DegenerateConfiguration, InvalidN
from .lattice import Lattice

__all__ = [
    "Configuration",
    "EnergyReport",
    "MinimizeResult",
    "GrowthRow",
    "total_energy",
    "energy_gradient",
    "minimize",
    "growth_diagnostic",
]

_ARMIJO_C = 1e-4       # sufficient-decrease constant
_BACKTRACK = 0.5       # step shrink factor
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
        if pts.shape[1] != self.lattice.dimension:
            raise ValueError("points have wrong dimension for the lattice")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
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
    fractional coordinates and is None when the energy is infinite."""

    energy: float
    gradient: np.ndarray | None
    degenerate_pairs: list
    plan: kn.EwaldPlan


@dataclass
class MinimizeResult:
    """Best restart of a minimization, with the plan every restart used."""

    best_config: Configuration
    best_energy: float
    restarts_used: int
    converged: bool
    plan: kn.EwaldPlan
    trajectory_summary: list = field(default_factory=list)
    restart_energies: list = field(default_factory=list)


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


def _pair_differences(cfg):
    """Min-imaged Cartesian differences x_j - x_k for all pairs j < k."""
    f = cfg.points
    n = f.shape[0]
    j, k = np.triu_indices(n, 1)
    dfrac = f[j] - f[k]
    dfrac -= np.round(dfrac)
    return j, k, cfg.lattice.to_cartesian(dfrac)


def total_energy(cfg, pot, plan, with_gradient=False):
    """Periodic energy: kernel summed over the N(N-1) ordered pairs,
    computed as twice the sum over unordered pairs."""
    n = cfg.n_points
    if n == 1:
        grad = np.zeros_like(cfg.points) if with_gradient else None
        return EnergyReport(0.0, grad, [], plan)
    j, k, Q = _pair_differences(cfg)
    values, grads, degen = kn.evaluate_batch(
        cfg.lattice, pot, plan, Q, want_grad=with_gradient)
    degenerate_pairs = [(int(a), int(b)) for a, b in zip(j[degen], k[degen])]
    energy = 2.0 * float(values.sum())
    gradient = None
    if with_gradient and math.isfinite(energy):
        gradient = np.zeros_like(cfg.points)
        # pair term 2 K(x_j - x_k): +2 grad to row j, -2 grad to row k,
        # then chain rule into fractional coordinates
        np.add.at(gradient, j, 2.0 * grads)
        np.add.at(gradient, k, -2.0 * grads)
        gradient = gradient @ cfg.lattice.basis
    return EnergyReport(energy, gradient, degenerate_pairs, plan)


def energy_gradient(cfg, pot, plan):
    """Gradient of the energy with respect to fractional coordinates."""
    report = total_energy(cfg, pot, plan, with_gradient=True)
    if not math.isfinite(report.energy):
        raise DegenerateConfiguration(
            f"infinite energy, degenerate pairs {report.degenerate_pairs}")
    return report.gradient


def _jitter_degenerate(lat, pts, rng):
    """Displace points of any too-close pair so descent starts finite."""
    n = pts.shape[0]
    for _ in range(40):
        j, k = np.triu_indices(n, 1)
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


def _descent(lat, pot, plan, pts0, max_iters, tol_grad):
    """Backtracking projected gradient descent on the torus.

    Returns (points, energy, converged, energy_trajectory); the trajectory
    is non-increasing by construction.
    """
    pts = pts0
    cfg = Configuration(lat, pts)
    report = total_energy(cfg, pot, plan, with_gradient=True)
    e = report.energy
    g = report.gradient
    traj = [e]
    step = 1.0 / (pts.shape[0] ** 2)
    converged = False
    stalls = 0
    for _ in range(max_iters):
        gnorm = float(np.max(np.abs(g)))
        if gnorm < tol_grad:
            converged = True
            break
        gsq = float(np.sum(g * g))
        t = step
        accepted = False
        for _ in range(60):
            trial = lat.reduce_frac(pts - t * g)
            trial_cfg = Configuration(lat, trial)
            trial_rep = total_energy(trial_cfg, pot, plan, with_gradient=True)
            if trial_rep.energy <= e - _ARMIJO_C * t * gsq:
                accepted = True
                break
            t *= _BACKTRACK
        if not accepted:
            # no certifiable descent left at double precision: treat as
            # converged when the gradient sits at the fp floor of the energy
            converged = gnorm < max(tol_grad, 1e-7 * (1.0 + abs(e)))
            break
        if e - trial_rep.energy < 1e-14 * (1.0 + abs(e)):
            stalls += 1
        else:
            stalls = 0
        pts, e, g = trial, trial_rep.energy, trial_rep.gradient
        traj.append(e)
        step = min(t * 2.0, 1.0)
        if stalls >= 3:
            converged = gnorm < max(tol_grad, 1e-7 * (1.0 + abs(e)))
            break
    return pts, e, converged, traj


def minimize(lat, pot, n, restarts=4, max_iters=2000, seed=0, tol_grad=None,
             tol=1e-12, keep_trajectory=False):
    """Local minimization of the periodic energy with random restarts.

    Start 0 is the m-fold lattice refinement when n = m^d, the remaining
    starts are uniform on the torus; each restart has its own deterministic
    substream of the seed.  The winner is the lowest energy, ties broken by
    restart index.
    """
    return _minimize_on(kn.plan_ewald(lat, pot, tol), n, restarts, max_iters,
                        seed, tol_grad, keep_trajectory)


def _minimize_on(plan, n, restarts=4, max_iters=2000, seed=0, tol_grad=None,
                 keep_trajectory=False):
    """minimize with every restart on a given plan, which also fixes the
    lattice and the potential."""
    if n < 2:
        raise InvalidN("minimize needs at least two points")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    lat, pot = plan.lattice, plan.potential
    d = lat.dimension
    if tol_grad is None:
        tol_grad = 1e-8 * n * n
    m = round(n ** (1.0 / d))
    structured = m**d == n

    best = None
    restart_energies = []
    best_traj = []
    for idx in range(restarts):
        rng = np.random.default_rng([seed, idx])
        if idx == 0 and structured:
            pts = Configuration.lattice_refinement(lat, m).points
        else:
            pts = rng.random((n, d))
        pts = _jitter_degenerate(lat, pts, rng)
        pts, e, conv, traj = _descent(lat, pot, plan, pts, max_iters, tol_grad)
        restart_energies.append(e)
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
    )


def growth_diagnostic(lat, pot, n_list, tol=1e-12, **opts):
    """Minimize at each N on one plan and tabulate the normalized energies
    (E, E/N^2, E/N^(1+s/d), E/(N^2 log N)), each row with that plan.  opts
    are minimize's other options.  The power column uses the potential's
    exponent s and is NaN for families without one."""
    if list(n_list) != sorted(n_list):
        raise ValueError("n_list must be increasing")
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

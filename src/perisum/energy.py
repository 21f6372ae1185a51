"""Periodic energies of point configurations and their minimization.

A configuration is N points in fractional coordinates on the torus; its
energy is the sum of the periodic kernel over ordered point pairs.  The
direct part and the splitting constant are summed pair by pair; the
reciprocal part is 2 sum_w a(w) (|S(w)|^2 - N) with the structure factors
S(w) = sum_j exp(2 pi i w.x_j), which costs O(N K) instead of O(N^2 K),
and is what lets the planner's default eta move work from the direct to
the reciprocal sum.  The gradient is taken with respect to the fractional
coordinates (chain rule through the lattice basis), which is also the
parametrization the minimizer works in: an L-BFGS in plain numpy
(_CompactLBFGS, _line_search, _relax) that imports no optimization library.
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
_MEMORY = 20           # L-BFGS correction pairs kept
_MAX_MOVE = 0.1        # largest fractional move on a line search's first trial
_ARMIJO = 1e-4         # sufficient-decrease constant of the line search
_MAX_TRIALS = 20       # energy evaluations per line search


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
    fractional coordinates and is None when it or the energy is not finite
    (a coincident pair, or terms beyond double range).  abs_err_bound is
    N(N-1) times the plan's bound on each kernel value's truncation error.
    grad_abs_err_bound bounds each entry's truncation error: a point's
    Cartesian gradient sums 2 grad K over N - 1 partners, each off by at
    most the plan's two gradient tail bounds, and a fractional entry is its
    dot product with a column of the basis."""

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
    if not (with_gradient and math.isfinite(energy)):
        return EnergyReport(energy, None, degenerate_pairs, plan, bound,
                            grad_bound)
    # pair term 2 D(x_j - x_k): +2 grad to row j, -2 grad to row k, on top
    # of the reciprocal gradient; then the chain rule into fractional
    # coordinates
    ends = np.concatenate([j, k])
    pair_grads = 2.0 * np.concatenate([grads, -grads])
    for c in range(lat.dimension):
        gradient[:, c] += np.bincount(ends, pair_grads[:, c], n)
    # at exponents of a few hundred a pair's gradient can pass the double
    # range while its energy does not; then there is no gradient
    with np.errstate(over="ignore", invalid="ignore"):
        gradient = gradient @ lat.basis
    if not np.isfinite(gradient).all():
        gradient = None
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


class _CompactLBFGS:
    """The L-BFGS inverse Hessian over the last m correction pairs (s, y),
    in the compact form of Byrd, Nocedal & Schnabel (Math. Prog. 63, 1994):

        H = c I + [S  c Y] [[R^-T (D + c Y^T Y) R^-1, -R^-T], [-R^-1, 0]]
                [S  c Y]^T,

    with c = s^T y / y^T y of the newest pair, R the upper triangle of S^T Y
    (pairs oldest first) and D its diagonal.

    The pairs sit in a ring of m slots, rows of S and Y, and R^-1 is kept in
    slot order instead of R.  Dropping the oldest pair zeroes its slot's row
    and column of R^-1: the inverse of a trailing block of a triangular
    matrix is that block of its inverse.  Appending a pair fills its slot's
    column with -R^-1 r / s^T y (r = S y) and 1 / s^T y, as
    [[R, r], [0, s^T y]]^-1 = [[R^-1, -R^-1 r / s^T y], [0, 1 / s^T y]].  A
    slot whose row and column of R^-1 are zero takes no part in a
    direction, so a direction costs a few (m x n) products and no solve."""

    def __init__(self, m, n):
        self.m, self.k, self.slot = m, 0, 0
        self.S = np.zeros((m, n))
        self.Y = np.zeros((m, n))
        self.Rinv = np.zeros((m, m))
        self.YY = np.zeros((m, m))
        self.D = np.zeros(m)
        self.gamma = 1.0

    def clear(self):
        self.Rinv[:] = 0.0
        self.k = self.slot = 0

    def direction(self, g):
        """-H g, or None with no pairs kept; NaN or inf entries where a
        product left the double range."""
        if self.k == 0:
            return None
        S, Y, Rinv, c = self.S, self.Y, self.Rinv, self.gamma
        with np.errstate(over="ignore", invalid="ignore"):
            u = Rinv @ (S @ g)
            w = (self.D * u + c * (self.YY @ u - Y @ g)) @ Rinv
            return c * (u @ Y - g) - w @ S

    def update(self, s, y):
        """Keep the pair (s, y) in place of the oldest once m are kept.  A
        pair with s^T y <= 0 would make H indefinite, and one with |y|^2
        beyond the double range undefined: either is skipped.  Products of
        kept pairs that still leave the double range show as a non-finite
        direction, which _relax answers by clearing the memory."""
        j, Rinv = self.slot, self.Rinv
        with np.errstate(over="ignore", invalid="ignore"):
            yy = float(y @ y)
            sy = float(s @ y)
            if not (sy > 0.0 and yy < math.inf):
                return
            Rinv[j] = Rinv[:, j] = 0.0
            self.S[j], self.Y[j] = s, y
            col = Rinv @ (self.S @ y)
            col *= -1.0 / sy
            col[j] = 1.0 / sy
            Rinv[:, j] = col
            self.YY[j] = self.YY[:, j] = self.Y @ y
        self.D[j] = sy
        self.gamma = sy / yy
        self.slot = (j + 1) % self.m
        self.k = min(self.k + 1, self.m)


def _line_search(evaluate, x, e, g, d, step):
    """Backtrack from step along the descent direction d to a trial
    (x, e, g) that has a gradient and passes the sufficient-decrease
    (Armijo) test, or return None: when d is no descent direction, after
    _MAX_TRIALS trials, or once the step no longer moves x.

    Where the decrease the test asks for is below the rounding of e, the
    energy cannot rank trials, and a trial must also bring the slope along
    d closer to zero: near a minimum that is what lets the gradient fall to
    tol_grad, and at the rounding floor of a steep energy (exponents of a
    few hundred) it keeps the points from drifting on noise.  A rejected
    trial with an energy shrinks the step to the minimizer of the quadratic
    through e, the slope and that energy, kept in [0.1, 0.5] of the step;
    one without a gradient shrinks it tenfold."""
    slope = float(g @ d)
    if not slope < 0.0:
        return None
    for _ in range(_MAX_TRIALS):
        x_new = x + step * d
        if np.array_equal(x_new, x):
            return None
        e_new, g_new = evaluate(x_new)
        if g_new is None:
            step *= 0.1
            continue
        want = e + _ARMIJO * step * slope
        if e_new <= want and (want < e or abs(float(g_new @ d)) < -slope):
            return x_new, e_new, g_new
        # e_new > e + step * slope here, so the quadratic is convex
        q = -0.5 * slope * step / (e_new - e - step * slope)
        step *= min(max(q, 0.1), 0.5)
    return None


def _relax(plan, pts0, max_iters, tol_grad):
    """L-BFGS (Liu & Nocedal, Math. Prog. 45, 1989) on the flattened
    fractional coordinates, with _MEMORY correction pairs.

    Each iteration backtracks along the direction -H g of _CompactLBFGS
    from the unit step, shortened so that no coordinate moves more than
    _MAX_MOVE of the cell on the first trial.  With no pairs kept, or when
    that line search fails, the memory is cleared and the first trial is -g
    scaled by _MAX_MOVE / max|g|: no square of the gradient is formed,
    which at exponents of a few hundred would leave the double range.  When
    that line search fails too, the run ends.  The energy is periodic, so
    the iterates are never reduced mid-run (Configuration reduces each
    trial on its own); only the returned points are.

    Returns (points, energy, converged, energy_trajectory); the trajectory
    is the start energy, then the energy after each iteration, which the
    line search keeps non-increasing.  The run
    stops when max|g| <= tol_grad or after max_iters iterations; with
    max_iters < 1, or a start without a gradient, the start comes back
    unrelaxed and not converged.  converged needs a run that stopped before
    max_iters with max|g| below tol_grad, or below the floor 1e-7 (1 + |E|)
    where a line search at double precision finds no descent left.
    """
    lat, pot = plan.lattice, plan.potential
    shape = pts0.shape

    def evaluate(x):
        rep = total_energy(Configuration(lat, x.reshape(shape)), pot, plan,
                           with_gradient=True)
        # no gradient when the energy is not finite (a coincident pair,
        # terms beyond double range) or the gradient passes the double range
        return rep.energy, None if rep.gradient is None else rep.gradient.ravel()

    x = pts0.ravel()
    e, g = evaluate(x)
    traj = [e]
    gmax = math.inf if g is None else float(np.max(np.abs(g)))
    memory = _CompactLBFGS(_MEMORY, x.size)
    it = 0
    while g is not None and it < max_iters and gmax > tol_grad:
        step = None
        d = memory.direction(g)
        if d is not None:
            dmax = float(np.max(np.abs(d)))
            if 0.0 < dmax < math.inf:
                step = _line_search(evaluate, x, e, g, d,
                                    min(1.0, _MAX_MOVE / dmax))
        if step is None:
            memory.clear()
            step = _line_search(evaluate, x, e, g, g / -gmax, _MAX_MOVE)
        if step is None:
            break
        x_new, e, g_new = step
        memory.update(x_new - x, g_new - g)
        x, g = x_new, g_new
        gmax = float(np.max(np.abs(g)))
        traj.append(e)
        it += 1
    converged = it < max_iters and gmax < max(tol_grad, 1e-7 * (1.0 + abs(e)))
    return lat.reduce_frac(x.reshape(shape)), e, converged, traj


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

"""Exception types shared across the package."""


class PerisumError(Exception):
    """Base class for all perisum errors."""


class DimensionMismatch(PerisumError):
    """Input has the wrong shape or lives in the wrong dimension."""


class SingularBasis(PerisumError):
    """Lattice basis is singular (or numerically indistinguishable from it)."""


class PoleAtOne(PerisumError):
    """Hurwitz/Riemann zeta evaluated at its pole s = 1."""


class DivergentIntegral(PerisumError):
    """Upper incomplete gamma requested at (sigma <= 0, x = 0)."""


class PlanMismatch(PerisumError):
    """Ewald plan was built for a different potential or lattice."""


class PolePoint(PerisumError):
    """Epstein-Hurwitz zeta requested at its pole s = d."""


class LatticePoint(PerisumError):
    """Evaluation point reduces into the lattice where the kernel is singular."""


class UnreachableTolerance(PerisumError):
    """Requested truncation tolerance needs more shells than the budget
    allows, or lies below the rounding floor of the sum."""


class InvalidN(PerisumError):
    """Point count outside the operation's domain."""


class InvalidParameter(PerisumError, ValueError):
    """Numeric parameter outside its domain: a non-finite or non-positive
    tolerance or splitting parameter, fewer than one restart, a decreasing
    N list, a non-finite point or one of the wrong dimension, or a
    special-function argument outside the function's domain."""


class UsageError(PerisumError):
    """Bad command-line arguments."""

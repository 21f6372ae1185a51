"""Unit-covolume Bravais lattices, their duals, and one walk over their
vectors.

A lattice is the set {V k : k integer vector} for a nonsingular d x d basis
matrix V whose columns are the generators.  Construction rescales any input
basis so |det V| = 1; the dual basis is inv(V).T, whose columns generate the
dual lattice (every dual generator has integer products with every direct
generator).

box_blocks is the one walk over lattice vectors: it covers the integer box
around a ball in blocks of bounded size.  Order-free sums walk it directly,
and enumerate_shells filters it to the ball for the Ewald plan.  A box that
fits in one block, as every plan's box on the presets does, is built in one
vectorised pass; a point B k has the same bits in every block split.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, SingularBasis

__all__ = [
    "Lattice",
    "lattice_from_basis",
    "lattice_preset",
    "enumerate_shells",
    "box_blocks",
    "min_dual_norm",
    "PRESETS",
]

# fractional coordinates within this distance of 1.0 snap to 0.0 so that
# reduction into the half-open cell is idempotent
_SNAP = 1e-15

# most points in one block of box_blocks: 256 KiB per float coordinate
# array, so a block and the temporaries summed over it stay in cache
_BOX_BLOCK = 1 << 15

# raw (pre-normalization) bases for the named presets; columns are generators
PRESETS = {
    "Z1": [[1.0]],
    "Z2": [[1.0, 0.0], [0.0, 1.0]],
    "Z3": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    # hexagonal (equilateral triangular): columns (1, 0) and (1/2, sqrt(3)/2)
    "hex": [[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]],
    # fcc primitive cell: columns (0,1/2,1/2), (1/2,0,1/2), (1/2,1/2,0)
    "fcc-like": [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
}


class Lattice:
    """Immutable unit-covolume lattice with cached dual and inverse bases."""

    def __init__(self, basis, scale_applied=1.0):
        basis = np.array(basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise DimensionMismatch("basis must be a square matrix")
        det = np.linalg.det(basis)
        if abs(abs(det) - 1.0) > 1e-12:
            raise ValueError("Lattice requires a unit-covolume basis; "
                             "use lattice_from_basis to normalize")
        self.basis = basis
        self.basis.setflags(write=False)
        self.dimension = basis.shape[0]
        self.covolume = abs(det)
        self.scale_applied = float(scale_applied)
        self._inv_basis = np.linalg.inv(basis)
        self._inv_basis.setflags(write=False)
        self.dual_basis = self._inv_basis.T.copy()
        self.dual_basis.setflags(write=False)

    # -- coordinates -------------------------------------------------------

    def to_fractional(self, x):
        """Cartesian -> fractional; works on points or (..., d) batches."""
        x = np.asarray(x, dtype=float)
        return x @ self._inv_basis.T

    def to_cartesian(self, f):
        f = np.asarray(f, dtype=float)
        return f @ self.basis.T

    def reduce_frac(self, f):
        """Reduce fractional coordinates into [0, 1)^d.

        Exactly idempotent: a second application returns the input bitwise.
        """
        f = np.asarray(f, dtype=float)
        g = f - np.floor(f)
        g = np.where(g >= 1.0 - _SNAP, 0.0, g)
        return g

    @functools.cached_property
    def half_cell_diameter(self):
        """max |V f| over f in [-1/2, 1/2]^d: the largest norm of a
        min-imaged point, and the circumradius of the cell centred on each
        lattice vector."""
        return _corner_radius(self.basis)

    @functools.cached_property
    def dual_half_cell_diameter(self):
        """half_cell_diameter of the dual lattice's basis."""
        return _corner_radius(self.dual_basis)

    @functools.cached_property
    def max_generator_norm(self):
        """Norm of the longest generator: a gradient's fractional component,
        its dot product with one generator, is at most this times the norm
        of the Cartesian gradient."""
        return float(np.max(np.linalg.norm(self.basis, axis=0)))

    @functools.cached_property
    def _box_scales(self):
        """Per walk, the row norms of the inverse of its basis: |k_i| <=
        scale_i |B k|.  The dual basis's inverse is the direct basis's
        transpose, so its rows are the direct columns."""
        # np.linalg.norm's own sum, without its argument checks
        return {"direct": np.sqrt(np.add.reduce(self._inv_basis**2, axis=1)).tolist(),
                "dual": np.sqrt(np.add.reduce(self.basis**2, axis=0)).tolist()}

    @functools.cached_property
    def _min_dual_norm(self):
        """min_dual_norm: the shortest dual generator is itself a candidate,
        so scanning the integer box of radius min(dual column norms) is
        provably sufficient (the dual columns are the rows of the inverse
        basis, whose norms _box_scales holds)."""
        r2 = math.inf
        for block in box_blocks(self, "dual", min(self._box_scales["direct"])):
            b2 = sum(block * block)
            r2 = min(r2, float(b2[b2 > 0.0].min(initial=math.inf)))
        return math.sqrt(r2)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        return {
            "dim": self.dimension,
            "basis": [float(v) for v in self.basis.reshape(-1)],
            "scale_applied": self.scale_applied,
        }

    @classmethod
    def from_json_dict(cls, obj):
        d = int(obj["dim"])
        basis = np.asarray(obj["basis"], dtype=float).reshape(d, d)
        return cls(basis, scale_applied=float(obj.get("scale_applied", 1.0)))

    def to_json(self):
        return json.dumps(self.to_json_dict())

    def __repr__(self):
        return f"Lattice(d={self.dimension}, basis={self.basis.tolist()})"


@functools.cache
def _cube_corners(d):
    """The 2^d corners of [-1/2, 1/2]^d, one per row, read-only."""
    corners = np.array(list(itertools.product((-0.5, 0.5), repeat=d)))
    corners.flags.writeable = False
    return corners


def _corner_radius(basis):
    """max |basis f| over the cube f in [-1/2, 1/2]^d.  The norm is convex in
    f, so a corner of the cube attains the maximum."""
    p = _cube_corners(basis.shape[0]) @ basis.T
    return math.sqrt(float(np.add.reduce(p * p, axis=1).max()))


def lattice_from_basis(raw_basis):
    """Build a Lattice from any nonsingular square basis.

    The basis is rescaled by |det|^(-1/d) (a positive factor) so the
    co-volume is exactly 1; the applied factor is recorded on the result.
    """
    raw = np.asarray(raw_basis, dtype=float)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise DimensionMismatch(f"basis must be square, got shape {raw.shape}")
    det = np.linalg.det(raw)
    if not np.isfinite(det) or abs(det) < 1e-300:
        raise SingularBasis("basis determinant is zero or not finite")
    d = raw.shape[0]
    scale = abs(det) ** (-1.0 / d)
    return Lattice(raw * scale, scale_applied=scale)


def lattice_preset(name):
    """One of the named presets: Z1, Z2, Z3, hex, fcc-like."""
    if name not in PRESETS:
        raise KeyError(f"unknown lattice preset {name!r}; "
                       f"choose from {sorted(PRESETS)}")
    return lattice_from_basis(PRESETS[name])


def _integer_box(lattice, which, radius):
    """The direct or dual basis B and the half-widths of an integer box that
    holds every k with |B k| <= radius (|k_i| <= |row i of inv(B)| |B k|).
    A box of more than 2e7 points (a large radius, or a skewed basis whose
    box is far wider than its ball) raises InvalidParameter before any
    point is built, and so does a radius that is not finite."""
    if which not in ("direct", "dual"):
        raise ValueError("which must be 'direct' or 'dual'")
    basis = lattice.basis if which == "direct" else lattice.dual_basis
    reach = [scale * radius + 1e-9 for scale in lattice._box_scales[which]]
    # one half-width of 1e7 alone makes more than 2e7 points
    if not (all(r < 1e7 for r in reach)
            and math.prod(2 * math.ceil(r) + 1 for r in reach) <= 2e7):
        raise InvalidParameter(f"the integer box for radius {radius:.3g} has "
                               "more than 2e7 points")
    return basis, np.array([math.ceil(r) for r in reach])


def enumerate_shells(lat, which, max_radius):
    """The direct or dual lattice vectors v with |v| <= max_radius, an
    (n, d) array, filtered from box_blocks in the order it walks the box:
    the lexicographic order of the integer coordinates k.  The box and the
    ball are symmetric and B(-k) is the exact negation of B k, so the
    origin is the middle row, row n-1-i is the negation of row i, and the
    rows after the middle are the k whose first nonzero coordinate is
    positive, one of each sign pair.  |v|^2 adds the squared coordinates
    in order, the sum np.linalg.norm takes over a row of up to seven."""
    if max_radius < 0:
        raise ValueError("max_radius must be >= 0")
    limit = max_radius * (1.0 + 1e-12) + 1e-300
    kept = [np.compress(np.sqrt(sum(v * v)) <= limit, v, axis=1)
            for v in box_blocks(lat, which, max_radius)]
    v = kept[0] if len(kept) == 1 else np.concatenate(kept, axis=1)
    return np.ascontiguousarray(v.T)


def box_blocks(lat, which, radius):
    """The integer box that holds the ball |B k| <= radius, as an iterable
    of blocks, each a (d, n) array of B k over at most _BOX_BLOCK integer
    points k (row i the i-th coordinates), unfiltered, that together
    cover the box once in the lexicographic order of k.  Order-free sums of
    terms that are small outside the ball walk it directly;
    enumerate_shells cuts the ball from it.  _integer_box refuses a box of
    more than 2e7 points here, before any block is built."""
    return _box_walk(*_integer_box(lat, which, radius))


def _box_walk(basis, bound):
    """Blocks of box_blocks over the integer box |k_i| <= bound[i].

    A box of at most _BOX_BLOCK points is one block, built in one pass.  A
    larger box is split along its first axis j whose trailing box, axes
    j+1.., fits in a block: for every point of the leading axes (just one,
    the empty one, unless the box is very lopsided), runs of consecutive
    coordinates k_j span a block with the whole trailing box.  In d = 1
    the blocks are chunks of the axis.  Only the trailing box (at most a
    block) and the current block are built, never a whole axis of a split
    box.
    """
    bound = bound.tolist()
    sizes = [2 * b + 1 for b in bound]
    if math.prod(sizes) <= _BOX_BLOCK:
        axes = [np.arange(-b, b + 1.0) for b in bound]
        return (_box_points(basis, axes[0], _trailing_sum(basis, axes)),)
    return _split_walk(basis, bound, sizes)


def _split_walk(basis, bound, sizes):
    """The blocks of a box larger than one block, as _box_walk splits it;
    with no leading axis (j = 0) the trailing sum is built once."""
    j = next(j for j in range(len(sizes))
             if math.prod(sizes[j + 1:]) <= _BOX_BLOCK)
    step = _BOX_BLOCK // math.prod(sizes[j + 1:])
    axes = [np.arange(-b, b + 1.0) for b in bound[j + 1:]]
    slab = _trailing_sum(basis, [None, *axes]) if j == 0 else None
    for lead in itertools.product(*[range(-b, b + 1) for b in bound[:j]]):
        for lo in range(-bound[j], bound[j] + 1, step):
            run = np.arange(lo, min(lo + step, bound[j] + 1), dtype=float)
            coords = [*lead, run, *axes]
            trailing = slab if j == 0 else _trailing_sum(basis, coords)
            yield _box_points(basis, coords[0], trailing)


def _trailing_sum(basis, coords):
    """((0 + B_1 k_1) + B_2 k_2) + ... over the integer points (k_1, ...)
    that coords[1:] spans, a (d, m) array in their lexicographic order:
    coords holds per axis of k either one integer, fixed over the block,
    or a 1-d float array of its values.  The sum grows one axis at a
    time."""
    d = basis.shape[0]
    total = np.zeros((d, 1, 1))
    for column, k in zip(basis.T[1:], coords[1:]):
        total = (total + (column[:, None] * k)[:, None, :]).reshape(d, -1, 1)
    return total.reshape(d, -1)


def _box_points(basis, k0, trailing):
    """B k = B_0 k_0 + trailing over every k_0 (an integer or a 1-d float
    array of values) and every point of trailing (_trailing_sum), a (d, n)
    array in the lexicographic order of k.  Each coordinate of B k is
    summed in this one association, B_0 k_0 + (((0 + B_1 k_1) + B_2 k_2)
    + ...), whichever axes a block fixes, so a point gets the same bits in
    any block."""
    first = (basis[:, 0, None] * k0)[:, :, None]
    return (first + trailing[:, None, :]).reshape(basis.shape[0], -1)


def min_dual_norm(lat):
    """Length |w0| of a shortest nonzero dual lattice vector, computed once
    per lattice."""
    return lat._min_dual_norm

import itertools
import json
import math

import numpy as np
import pytest

from perisum import lattice as lattice_module
from perisum.errors import DimensionMismatch, InvalidParameter, SingularBasis
from perisum.lattice import (
    PRESETS,
    Lattice,
    _integer_box,
    box_blocks,
    enumerate_shells,
    lattice_from_basis,
    lattice_preset,
    min_dual_norm,
)


def test_z1_is_self_dual():
    lat = lattice_from_basis([[1.0]])
    assert lat.dimension == 1
    assert lat.covolume == pytest.approx(1.0, abs=1e-15)
    assert lat.dual_basis[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_normalization_rescales_to_unit_covolume():
    lat = lattice_from_basis([[2.0, 0.0], [0.0, 2.0]])
    assert np.allclose(lat.basis, np.eye(2), atol=1e-15)
    assert np.allclose(lat.dual_basis, np.eye(2), atol=1e-15)
    assert lat.scale_applied == pytest.approx(0.5)


def test_hexagonal_dual_integrality():
    lat = lattice_preset("hex")
    assert abs(abs(np.linalg.det(lat.basis)) - 1.0) <= 1e-12
    # every dual generator has integer product with every direct generator
    prods = lat.dual_basis.T @ lat.basis
    assert np.max(np.abs(prods - np.round(prods))) <= 1e-12


def test_dual_transpose_identity():
    for name in ("Z1", "Z2", "Z3", "hex", "fcc-like"):
        lat = lattice_preset(name)
        assert np.max(np.abs(lat.dual_basis.T @ lat.basis - np.eye(lat.dimension))) <= 1e-12


def test_singular_basis_rejected():
    with pytest.raises(SingularBasis):
        lattice_from_basis([[1.0, 1.0], [1.0, 1.0]])


def test_non_square_rejected():
    with pytest.raises(DimensionMismatch):
        lattice_from_basis([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


_SHEARED = {"sheared-2": [[1.0, 2.0], [0.0, 1.0]],
            "sheared-3": [[1.0, 7.0, 3.0], [0.0, 1.0, 5.0], [0.0, 0.0, 1.0]]}


@pytest.mark.parametrize("name", sorted(PRESETS) + sorted(_SHEARED))
@pytest.mark.parametrize("which", ["direct", "dual"])
def test_shells_are_the_ball_in_sign_pairs(name, which):
    # the rows are the ball's vectors, an odd number with the origin in the
    # middle, each row after the middle the exact negation of its mirror
    # before it, and the rows after the middle the k whose first nonzero
    # coordinate is positive: the half a plan keeps of the dual vectors
    lat = lattice_from_basis(_SHEARED.get(name, PRESETS.get(name)))
    basis = lat.basis if which == "direct" else lat.dual_basis
    for radius in (0.0, 1.0, 2.5):
        v = enumerate_shells(lat, which, radius)
        n = v.shape[0]
        assert v.shape == (n, lat.dimension) and n % 2 == 1
        # oracle: every integer k of a box that holds the ball
        half = np.ceil(np.linalg.norm(np.linalg.inv(basis), axis=1) * radius) + 1
        box = np.array(list(itertools.product(
            *[range(-int(h), int(h) + 1) for h in half])), dtype=float)
        ball = box[np.linalg.norm(box @ basis.T, axis=1) <= radius * (1 + 1e-12)]
        assert n == ball.shape[0], (radius, n, ball.shape[0])
        mid = n // 2
        assert not v[mid].any()
        assert np.array_equal(v[mid + 1:], -v[:mid][::-1])
        k = np.rint(np.linalg.solve(basis, v[mid + 1:].T).T)
        first = ball[np.arange(ball.shape[0]), np.argmax(ball != 0, axis=1)]
        assert {tuple(r) for r in k} == {tuple(r) for r in ball[first > 0]}
        assert len(k) == len(ball[first > 0]) == (n - 1) // 2


def _stacked_blocks(lat, which, radius):
    return [np.stack([c.reshape(-1) for c in block], axis=1)
            for block in box_blocks(lat, which, radius)]


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("which", ["direct", "dual"])
def test_box_vectors_cover_the_shells(name, which):
    # the blocks together hold every vector of the ball, each exactly once,
    # and their sizes add up to the size of the integer box
    lat = lattice_preset(name)
    for radius in (0.0, 0.9, 2.5, 4.0):
        box = np.concatenate(_stacked_blocks(lat, which, radius))
        _, bound = _integer_box(lat, which, radius)
        assert box.shape[0] == np.prod(2 * bound + 1)
        for v in enumerate_shells(lat, which, radius):
            dist = np.max(np.abs(box - v), axis=1)
            assert np.count_nonzero(dist <= 1e-12) == 1, (radius, v)


@pytest.mark.parametrize("name", ["Z1", "hex", "fcc-like"])
def test_box_blocks_below_one_slab(name, monkeypatch):
    # blocks smaller than the axis (d = 1) or than a slab (d >= 2, which is
    # then split further) still cover the box once, each within the limit
    lat = lattice_preset(name)
    full = np.concatenate(_stacked_blocks(lat, "direct", 2.5))
    monkeypatch.setattr(lattice_module, "_BOX_BLOCK", 7)
    blocks = _stacked_blocks(lat, "direct", 2.5)
    assert max(b.shape[0] for b in blocks) <= 7
    small = np.concatenate(blocks)
    assert small.shape == full.shape
    for v in full:
        assert np.count_nonzero(np.max(np.abs(small - v), axis=1) <= 1e-12) == 1


# skewed bases, where the association of B k's terms decides its bits
_SKEWED = {"shear-2": [[1.0, 3.0], [0.0, 1.0]],
           "shear-3": [[1.0, 0.3, 2.0], [0.0, 1.0, 0.7], [0.0, 0.0, 1.0]]}


@pytest.mark.parametrize("name", sorted(PRESETS) + sorted(_SKEWED))
def test_shells_bitwise_independent_of_block_size(name, monkeypatch):
    # each point B k is summed in one association, B_0 k_0 + ((0 + B_1 k_1)
    # + B_2 k_2), whatever the block split: the ball comes out with the
    # same bits from one block, from blocks of whole slabs and from blocks
    # below one slab
    lat = lattice_from_basis(_SKEWED.get(name, PRESETS.get(name)))
    one = {(which, radius): enumerate_shells(lat, which, radius)
           for which in ("direct", "dual") for radius in (0.0, 1.0, 2.5, 4.0)}
    for (which, radius), v in one.items():
        basis = lat.basis if which == "direct" else lat.dual_basis
        k = np.rint(np.linalg.solve(basis, v.T).T)
        terms = [k[:, j, None] * basis[:, j] for j in range(lat.dimension)]
        trailing = 0.0
        for t in terms[1:]:
            trailing = trailing + t
        assert v.tobytes() == (terms[0] + trailing).tobytes()
    for block in (1 << 17, 1 << 9, 3):
        monkeypatch.setattr(lattice_module, "_BOX_BLOCK", block)
        for (which, radius), v in one.items():
            again = enumerate_shells(lat, which, radius)
            assert again.shape == v.shape and again.tobytes() == v.tobytes()
    # at 3 points a block holds less than one slab of the d >= 2 boxes
    blocks = list(box_blocks(lat, "direct", 4.0))
    assert len(blocks) > 1 and max(b.shape[1] for b in blocks) <= 3


def test_box_vectors_guard():
    with pytest.raises(ValueError, match="2e7"):
        box_blocks(lattice_preset("Z3"), "direct", 200.0)


def test_skewed_basis_box_refused_before_enumeration():
    # a unimodular shear of Z2 whose cell reaches |v| = 1500: the integer
    # box around the ball of that radius holds about 2.7e10 points, and
    # both walks refuse it before building one
    sheared = lattice_from_basis([[1.0, 3000.0], [0.0, 1.0]])
    radius = sheared.half_cell_diameter
    assert radius > 1500.0
    for walk in (enumerate_shells, box_blocks):
        with pytest.raises(InvalidParameter, match="2e7"):
            walk(sheared, "direct", radius)


def test_hex_dual_count_matches_integer_box_scan():
    lat = lattice_preset("hex")
    radius = 2.0
    # oracle: scan a generous integer box against the dual basis directly
    B = lat.dual_basis
    count = 0
    for i in range(-8, 9):
        for j in range(-8, 9):
            w = B @ np.array([i, j], dtype=float)
            if np.linalg.norm(w) <= radius * (1.0 + 1e-12):
                count += 1
    shells = enumerate_shells(lat, "dual", radius)
    assert len(shells) == count


def test_reduce_frac_bitwise_idempotent():
    lat = lattice_preset("hex")
    rng = np.random.default_rng(0)
    f = rng.uniform(-5, 5, size=(200, 2))
    once = lat.reduce_frac(f)
    twice = lat.reduce_frac(once)
    assert np.array_equal(once, twice)
    assert np.all((once >= 0.0) & (once < 1.0))


def test_min_dual_norm():
    assert min_dual_norm(lattice_preset("Z1")) == pytest.approx(1.0)
    assert min_dual_norm(lattice_preset("Z3")) == pytest.approx(1.0)
    lat = lattice_from_basis([[2.0, 0.0], [0.0, 0.5]])
    assert min_dual_norm(lat) == pytest.approx(0.5)


def test_min_dual_norm_hex_brute_force():
    lat = lattice_preset("hex")
    B = lat.dual_basis
    best = math.inf
    for i in range(-6, 7):
        for j in range(-6, 7):
            if i == 0 and j == 0:
                continue
            best = min(best, float(np.linalg.norm(B @ np.array([i, j], float))))
    assert min_dual_norm(lat) == pytest.approx(best, rel=1e-14)


def test_json_roundtrip():
    lat = lattice_preset("fcc-like")
    obj = json.loads(lat.to_json())
    lat2 = Lattice.from_json_dict(obj)
    assert np.array_equal(lat.basis, lat2.basis)
    assert obj["dim"] == 3
    assert len(obj["basis"]) == 9


@pytest.mark.parametrize("name", ["Z1", "Z2", "Z3", "hex", "fcc-like"])
def test_half_cell_diameter_is_exact(name):
    # max |V f| over a dense grid of f in [-1/2, 1/2]^d, corners included
    lat = lattice_preset(name)
    d = lat.dimension
    axis = np.linspace(-0.5, 0.5, {1: 201, 2: 101, 3: 41}[d])
    f = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    for basis, radius in ((lat.basis, lat.half_cell_diameter),
                          (lat.dual_basis, lat.dual_half_cell_diameter)):
        grid_max = float(np.max(np.linalg.norm(f @ basis.T, axis=1)))
        assert grid_max == pytest.approx(radius, rel=1e-15)
    expected = {"Z3": math.sqrt(3.0) / 2.0, "hex": 0.9306}.get(name)
    if expected is not None:
        assert lat.half_cell_diameter == pytest.approx(expected, abs=1e-4)


def test_half_cell_diameter_bounds_skewed_cells():
    rng = np.random.default_rng(3)
    for _ in range(5):
        lat = lattice_from_basis(rng.normal(size=(3, 3)))
        f = rng.uniform(-0.5, 0.5, (20000, 3))
        assert np.max(np.linalg.norm(lat.to_cartesian(f), axis=1)) <= (
            lat.half_cell_diameter)

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
    reduce_to_cell,
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


def test_shells_z2_radius_1_5():
    lat = lattice_preset("Z2")
    shells = enumerate_shells(lat, "direct", 1.5)
    assert len(shells) == 9
    assert np.allclose(shells.norms,
                       [0, 1, 1, 1, 1] + [math.sqrt(2)] * 4)
    # ties broken lexicographically on integer coordinates
    expected = [(0, 0), (-1, 0), (0, -1), (0, 1), (1, 0),
                (-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert [tuple(k) for k in shells.integer_coords] == expected


def test_shells_z1_exclude_origin():
    # the origin comes first; dropping it leaves the sign pairs by norm
    lat = lattice_preset("Z1")
    shells = enumerate_shells(lat, "direct", 3.2)
    assert int(shells.integer_coords[0, 0]) == 0 and shells.norms[0] == 0.0
    assert [int(k) for k in shells.integer_coords[1:, 0]] == [-1, 1, -2, 2, -3, 3]


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
        shells = enumerate_shells(lat, which, radius)
        for v in shells.vectors:
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


def test_shell_prefix_property():
    lat = lattice_preset("hex")
    small = enumerate_shells(lat, "direct", 2.0)
    large = enumerate_shells(lat, "direct", 3.5)
    n = len(small)
    assert np.array_equal(small.integer_coords, large.integer_coords[:n])


def test_reduce_examples():
    z2 = lattice_preset("Z2")
    assert np.allclose(reduce_to_cell(z2, np.array([1.25, -0.5])),
                       [0.25, 0.5], atol=1e-14)
    z1 = lattice_preset("Z1")
    assert reduce_to_cell(z1, np.array([3.0]))[0] == 0.0


def test_reduce_frac_bitwise_idempotent():
    lat = lattice_preset("hex")
    rng = np.random.default_rng(0)
    f = rng.uniform(-5, 5, size=(200, 2))
    once = lat.reduce_frac(f)
    twice = lat.reduce_frac(once)
    assert np.array_equal(once, twice)
    assert np.all((once >= 0.0) & (once < 1.0))


def test_reduce_difference_is_lattice_vector():
    lat = lattice_preset("hex")
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-4, 4, size=2)
        y = reduce_to_cell(lat, x)
        k = lat.to_fractional(y - x)
        assert np.max(np.abs(k - np.round(k))) <= 1e-12


def test_reduce_rejects_nonfinite():
    lat = lattice_preset("Z2")
    with pytest.raises(ValueError):
        reduce_to_cell(lat, np.array([np.inf, 0.0]))


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

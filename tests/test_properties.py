"""Property tests of total_energy: periodicity, translation and permutation
invariance, and independence of the splitting parameter, each within the
energy's reported abs_err_bound."""

import functools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from perisum import energy as en  # noqa: E402
from perisum import kernel as kn  # noqa: E402
from perisum.lattice import lattice_preset  # noqa: E402

_POTENTIALS = ("riesz:0.5", "riesz:1", "riesz:2.5", "logriesz:0.5",
               "logriesz:1.7", "log", "gaussian:0.5")
_LATTICES = ("Z1", "Z2", "Z3", "hex", "fcc-like")
_TOL = 1e-10
_MIN_GAP = 0.05  # keeps |E| small enough that rounding stays below the bounds

_settings = settings(max_examples=25, deadline=None, derandomize=True,
                     database=None)


@functools.cache
def _plan(lattice, potential, eta=1.0):
    return kn.plan_ewald(lattice_preset(lattice), kn.parse_potential(potential),
                         _TOL, eta=eta)


@st.composite
def _cases(draw):
    lattice = draw(st.sampled_from(_LATTICES))
    potential = draw(st.sampled_from(_POTENTIALS))
    d = lattice_preset(lattice).dimension
    n = draw(st.integers(2, 5))
    coord = st.floats(0.0, 1.0, exclude_max=True)
    points = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                    min_size=n, max_size=n)))
    diff = points[:, None, :] - points[None, :, :]
    diff -= np.round(diff)
    gaps = np.linalg.norm(diff, axis=2) + np.eye(n)
    assume(gaps.min() >= _MIN_GAP)
    return lattice, potential, points


def _energy(lattice, potential, points, eta=1.0):
    cfg = en.Configuration(lattice_preset(lattice), points)
    return en.total_energy(cfg, kn.parse_potential(potential),
                           _plan(lattice, potential, eta))


@_settings
@given(_cases(), st.data())
def test_periodicity(case, data):
    lattice, potential, points = case
    shift = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=points.shape[1],
                                        max_size=points.shape[1]),
                               min_size=len(points), max_size=len(points)))
    rep = _energy(lattice, potential, points)
    moved = _energy(lattice, potential, points + np.array(shift, dtype=float))
    assert abs(moved.energy - rep.energy) <= rep.abs_err_bound


@_settings
@given(_cases(), st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_translation_invariance(case, t):
    lattice, potential, points = case
    rep = _energy(lattice, potential, points)
    moved = _energy(lattice, potential, points + np.array(t[:points.shape[1]]))
    assert abs(moved.energy - rep.energy) <= rep.abs_err_bound


@_settings
@given(_cases(), st.randoms(use_true_random=False))
def test_permutation_invariance(case, rnd):
    lattice, potential, points = case
    order = list(range(len(points)))
    rnd.shuffle(order)
    rep = _energy(lattice, potential, points)
    moved = _energy(lattice, potential, points[order])
    assert abs(moved.energy - rep.energy) <= rep.abs_err_bound


@_settings
@given(_cases(), st.sampled_from((0.25, 0.5, 2.0, 4.0)))
def test_eta_invariance(case, eta):
    lattice, potential, points = case
    rep = _energy(lattice, potential, points)
    other = _energy(lattice, potential, points, eta)
    assert math.isfinite(rep.energy)
    assert abs(other.energy - rep.energy) <= rep.abs_err_bound + other.abs_err_bound

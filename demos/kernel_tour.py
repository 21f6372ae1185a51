"""A tour of the periodic kernels.

Builds a few unit-covolume lattices, evaluates the four kernel families at
sample points, and demonstrates the properties that make the renormalized
kernel trustworthy: independence of the Ewald splitting parameter, agreement
with the classical Coulomb form in three dimensions, and agreement with the
plain direct sum (up to the known constant) where that sum converges.

Run:  python3 demos/kernel_tour.py
"""

import math

import numpy as np

from perisum import kernel as kn
from perisum.lattice import lattice_preset

print("=" * 72)
print("Lattices (all rescaled to unit co-volume)")
print("=" * 72)
for name in ("Z1", "Z2", "Z3", "hex", "fcc-like"):
    lat = lattice_preset(name)
    print(f"{name:9s} d={lat.dimension}  basis columns = "
          f"{np.round(lat.basis.T, 6).tolist()}  scale={lat.scale_applied:.6f}")

print()
print("=" * 72)
print("The four kernel families on the hexagonal lattice, q = (0.23, 0.61)")
print("=" * 72)
hexa = lattice_preset("hex")
q = hexa.to_cartesian(np.array([0.23, 0.61]))
zero = np.zeros(2)

for label in ("riesz:0.75", "riesz:1.5", "logriesz:1.5", "log"):
    pot = kn.parse_potential(label)
    plan = kn.plan_ewald(hexa, pot, 1e-12)
    kv = kn.kernel_value(plan, q, zero)
    print(f"{label:14s} K(q, 0) = {kv.value:+.12f}   "
          f"({kv.terms_direct} direct terms, {kv.terms_dual} dual terms, "
          f"tail bound {kv.abs_err_bound:.1e})")

kv = kn.gaussian_kernel(hexa, q, zero, c=2.0, r_cut=7.0)
print(f"{'gaussian:2':14s} K(q, 0) = {kv.value:+.12f}   "
      f"({kv.terms_direct} direct terms, absolutely convergent)")

print()
print("=" * 72)
print("Splitting-parameter invariance: the eta pieces cancel exactly")
print("=" * 72)
for eta in (0.5, 1.0, 2.0):
    plan = kn.plan_ewald(hexa, kn.Riesz(0.75), 1e-12, eta=eta)
    kv = kn.kernel_value(plan, q, zero)
    print(f"eta = {eta:3.1f}: K = {kv.value:.15f}   "
          f"(r_cut {plan.r_cut:.2f}, k_cut {plan.k_cut:.2f})")

print()
print("=" * 72)
print("d = 3, s = 1 recovers the classical erfc/Gaussian Coulomb form")
print("=" * 72)
z3 = lattice_preset("Z3")
plan3 = kn.plan_ewald(z3, kn.Riesz(1.0), 1e-12)
x = np.array([0.5, 0.5, 0.5])
a = kn.coulomb_kernel(z3, x, np.zeros(3), plan3)
b = kn.kernel_value(plan3, x, np.zeros(3))
print(f"coulomb form: {a.value:.15f}")
print(f"riesz  s = 1: {b.value:.15f}")
print(f"difference:   {abs(a.value - b.value):.2e}")

print()
print("=" * 72)
print("Above the dimension the continuation is the direct sum minus a constant")
print("=" * 72)
z1 = lattice_preset("Z1")
s = 3.0
n = np.arange(-200000, 200001, dtype=float)
for qq in (0.29, 0.71):
    brute = float(np.sum(np.abs(qq + n) ** -s))
    zeta = kn.epstein_hurwitz_zeta(z1, np.array([qq]), s)
    print(f"q = {qq}: direct sum {brute:.12f}  continuation {zeta:.12f}  "
          f"diff {abs(brute - zeta):.2e}")
const = 2.0 * math.sqrt(math.pi) / (math.gamma(1.5) * (s - 1.0))
plan = kn.plan_ewald(z1, kn.Riesz(s), 1e-13)
kv = kn.kernel_value(plan, np.array([0.29]), np.zeros(1))
print(f"kernel + shift constant {const:.6f} reproduces the direct sum: "
      f"{kv.value + const:.12f}")

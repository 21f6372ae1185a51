"""Poisson summation and the renormalization picture.

Shows the three pillars the kernel construction rests on: the Gaussian
Poisson identity on unit-covolume lattices, the constant-shift law relating
the renormalized kernel to plain direct sums, and the convergence-factor
route (damp the divergent sum, subtract the configuration-independent part,
release the damping) landing on the same kernel values.  Ends with the
hexagonal-vs-square lattice-energy observation.

Run:  python3 demos/poisson_and_renormalization.py
"""

import math

import numpy as np

from perisum import kernel as kn
from perisum import validate as vd
from perisum.lattice import enumerate_shells, lattice_preset

print("=" * 72)
print("Gaussian Poisson summation (unit co-volume)")
print("=" * 72)
rng = np.random.default_rng(3)
for name in ("Z1", "Z2", "hex"):
    lat = lattice_preset(name)
    x = lat.to_cartesian(rng.random(lat.dimension))
    omega = float(rng.uniform(0.3, 10.0))
    r = vd.check_poisson(lat, x, omega)
    print(f"{name:4s} omega = {omega:6.3f}: both sides {r.lhs:.12f}, "
          f"abs residual {r.abs_err:.1e}")

print()
print("=" * 72)
print("Constant-shift law: direct sum minus kernel is q-independent")
print("=" * 72)
z2 = lattice_preset("Z2")
s = 7.0
plan = kn.plan_ewald(z2, kn.Riesz(s), 1e-13)
shifts = []
for frac in ([0.31, 0.22], [0.74, 0.58]):
    q = z2.to_cartesian(np.array(frac))
    bf = vd.brute_force_epstein_hurwitz(z2, q, s)
    kv = kn.kernel_value(plan, q, np.zeros(2))
    shifts.append(bf - kv.value)
    print(f"q = {frac}: direct - kernel = {bf - kv.value:.15f}")
print(f"formula 2 pi^(d/2)/(Gamma(s/2)(s-d)) = {vd.shift_constant(s, 2):.15f}")
print(f"q-dependence: {abs(shifts[0] - shifts[1]):.2e}")

print()
print("=" * 72)
print("Convergence factors: damped sums approach the kernel as a -> 0")
print("=" * 72)
z1 = lattice_preset("Z1")
for s in (0.5, 3.0):
    plan = kn.plan_ewald(z1, kn.Riesz(s), 1e-13)
    ref = kn.kernel_value(plan, np.array([0.3]), np.zeros(1)).value
    a_seq = [0.2, 0.1, 0.05]
    vals = kn.convergence_factor_oracle(z1, np.array([0.3]), s, a_seq)
    print(f"s = {s}: kernel reference {ref:.10f}")
    for a, v in zip(a_seq, vals):
        print(f"   a = {a:4.2f}: renormalized damped sum {v:.10f} "
              f"(gap {abs(v - ref):.2e})")

print()
print("=" * 72)
print("Observation: hexagonal vs square lattice energies (s > d = 2)")
print("=" * 72)
for s in (3.0, 4.0):
    r = vd.check_lattice_comparison(s)
    print(f"s = {s}: hex {r.lhs:.8f}  square {r.rhs:.8f}  "
          f"({'hex lower' if r.lhs < r.rhs else 'square lower'})")

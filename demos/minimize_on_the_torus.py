"""Energy minimization on the torus.

Runs the L-BFGS minimizer with restarts and shows what it finds:
equally spaced points on the circle (with the exact minimal energy), a
comparison of random starts against the scaled-lattice start on the square
lattice, and the growth table used to read off large-N rates.

Run:  python3 demos/minimize_on_the_torus.py   (a few seconds)
"""

import math

import numpy as np

from perisum import energy as en
from perisum import kernel as kn
from perisum import validate as vd
from perisum.lattice import lattice_preset

z1 = lattice_preset("Z1")
z2 = lattice_preset("Z2")

print("=" * 72)
print("d = 1: the minimizer finds equally spaced points")
print("=" * 72)
for s in (0.5, 2.0):
    for n in (5, 8):
        res = en.minimize(z1, kn.Riesz(s), n, restarts=4, seed=1)
        pts = np.sort(res.best_config.points[:, 0])
        gaps = np.diff(np.concatenate([pts, [pts[0] + 1.0]]))
        law = vd.riesz_1d_minimum(n, s)
        print(f"s = {s}, N = {n}: gap spread {gaps.max() - gaps.min():.2e}, "
              f"energy {res.best_energy:.10f} vs law {law:.10f} "
              f"(restarts: {['%.6f' % e for e in res.restart_energies]})")

print()
print("=" * 72)
print("d = 2 square lattice, N = m^2: random starts vs the scaled lattice")
print("=" * 72)
pot = kn.Riesz(1.0)
plan = kn.plan_ewald(z2, pot, 1e-12)
for m in (2, 3):
    n = m * m
    structured = en.Configuration.lattice_refinement(z2, m)
    e_struct = en.total_energy(structured, pot, plan).energy
    res = en.minimize(z2, pot, n, restarts=3, seed=2, max_iters=1500)
    marker = "=" if abs(res.best_energy - e_struct) < 1e-6 else "<"
    print(f"N = {n}: scaled-lattice start energy {e_struct:.8f}, "
          f"best found {res.best_energy:.8f} ({marker} lattice value)")

print()
print("=" * 72)
print("Growth table, d = 1, s = 1/2 (the E/N^2 column climbs toward its")
print("limit 4 sqrt(pi)/Gamma(1/4) with a slow N^(s/d - 1) deficit)")
print("=" * 72)
rows = en.growth_diagnostic(z1, kn.Riesz(0.5), [8, 16, 32], restarts=2, seed=0)
limit = 4.0 * math.sqrt(math.pi) / math.gamma(0.25)
print(f"{'N':>4} {'E':>16} {'E/N^2':>10} {'E/N^1.5':>10} {'E/(N^2 ln N)':>13}")
for r in rows:
    print(f"{r.n:>4} {r.energy:>16.6f} {r.per_n2:>10.6f} "
          f"{r.per_n_power:>10.6f} {r.per_n2_log:>13.6f}")
print(f"N -> infinity limit of E/N^2: {limit:.6f}")

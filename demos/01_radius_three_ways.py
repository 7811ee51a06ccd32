"""Compute the rho-numerical radius of truncated shifts three independent ways.

The toolkit offers three routes to w_rho(S_{n+1}(1)):

  1. the companion route (the largest real eigenvalue of a linearization of
     the antisymmetric half of the kernel's z = 1 quadratic, 2 floor((n+1)/2)
     wide, Hermitian for rho <= 2 and a nonsymmetric companion above;
     ``shift_radius``, which also returns the auxiliary angle omega for
     1 < rho < n+2),
  2. the first weight where the kernel at z = 1 stops being positive definite
     (``determinant_radius``: a Sylvester bracket on the pivots of the
     determinant recurrence, narrowed by regula falsi on the last pivot and
     confirmed by the smallest eigenvalue, positive just below the root and
     not just above it; works for every rho > 1),
  3. the level-set route: the largest membership threshold of T/gamma on
     the unit circle, each the largest real eigenvalue of the same
     linearization built at that point, found by a criss-cross iteration that locates every
     crossing of the current level from one eigenproblem and stops when no
     crossing is left (``radius_bisect``; works for ANY matrix, so it
     cross-checks the shift-specific routes).

They must agree; this script prints the comparison table plus the closed
forms that exist at rho = 2 and rho = n + 2.
"""

import math

import numpy as np

from rho_toolkit import (critical_rho, determinant_radius, make_shift,
                         radius_bisect, shift_radius)

print("=" * 72)
print("three-way agreement, n = 4")
print("=" * 72)
print(f"{'rho':>6} | {'companion':>16} | {'determinant':>16} | {'level set':>16}")
n = 4
for rho in (1.3, 2.0, 3.5, 6.0, 9.0):
    w_comp = shift_radius(n, rho).value
    w_det = determinant_radius(n, rho).value
    w_level = radius_bisect(make_shift(n, 1.0), rho).value
    print(f"{rho:6.2f} | {w_comp:16.12f} | {w_det:16.12f} | {w_level:16.12f}")

print()
print("closed form at rho = 2: w_2(S_{n+1}) = cos(pi/(n+2))")
for n in (2, 5, 10, 20):
    res = shift_radius(n, 2.0)
    exact = math.cos(math.pi / (n + 2))
    print(f"  n={n:2d}: computed {res.value:.15f}   cos(pi/(n+2)) {exact:.15f}   "
          f"|diff| {abs(res.value - exact):.1e}")

print()
print("critical point: at rho0 = n + 2 the radius is exactly n/(n+2)")
for n in (1, 3, 6, 12):
    rho0, a0 = critical_rho(n)
    res = determinant_radius(n, rho0)
    print(f"  n={n:2d}: rho0={rho0:4.1f}  w={res.value:.12f}  n/(n+2)={n / (n + 2):.12f}"
          f"  normalized weight a0={a0:.6f}")

print()
print("the auxiliary angle decreases strictly in rho (n = 6):")
for rho in np.linspace(1.2, 7.8, 8):
    res = shift_radius(6, float(rho))
    print(f"  rho={rho:5.2f}  omega={res.omega:.8f}  w={res.value:.8f}")

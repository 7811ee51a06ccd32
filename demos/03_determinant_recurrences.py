"""Determinant recurrences, their LU oracle, and the three root regimes.

The shift-kernel determinants obey a three-term recurrence whose
characteristic discriminant (a^2-1)((a+1)rho-2a)((a-1)rho-2a) changes sign
at the normalized weight exactly when rho crosses n + 2.  This script doubles
the recurrences against brute-force LU determinants, walks the three regimes,
and shows the positive-discriminant regime on the normalized recurrence
D_k/(a(rho-1))^k: that sequence decreases to zero and its characteristic
roots straddle 1, while the raw D_k, which carry the factor (a(rho-1))^k,
rise before collapsing.
"""

import math

import numpy as np

from rho_toolkit import (capped_kernel_det, capped_kernel_det_matrix,
                         critical_closed_form, determinant_radius, discriminant,
                         kernel_det, kernel_det_matrix, kernel_det_state,
                         mixed_identity_residual, oscillatory_closed_form,
                         recurrence_roots)
from rho_toolkit.determinants import coefficients

print("recurrence vs LU determinant (worst relative deviation over a grid):")
worst = 0.0
for a in (0.5, 1.0, 1.7, 3.0):
    for rho in (1.5, 2.0, 4.0):
        for m in range(9):
            lu = np.linalg.det(kernel_det_matrix(m, a, rho))
            rec = kernel_det(m, a, rho)
            worst = max(worst, abs(lu - rec) / max(abs(lu), abs(rec), 1.0))
            lu = np.linalg.det(capped_kernel_det_matrix(m, a, rho))
            rec = capped_kernel_det(m, a, rho)
            worst = max(worst, abs(lu - rec) / max(abs(lu), abs(rec), 1.0))
print(f"  {worst:.2e}   (cross-family identity residual at m=5: "
      f"{mixed_identity_residual(5, 1.7, 2.5):.2e})")

print()
print("discriminant sign at the normalized weight tracks rho - (n+2):")
n = 5
for rho in (5.0, 6.75, 7.0, 7.25, 9.0):
    a = 1.0 / determinant_radius(n, rho).value
    d = discriminant(a, rho)
    print(f"  rho={rho:5.2f}  a(rho)={a:.6f}  discriminant={d:+.4e}")

print()
print("zero-discriminant closed forms at rho0 = n + 2 (n = 5):")
for m in (0, 2, 5):
    capped, kernel = critical_closed_form(m, 5)
    print(f"  index {m}: capped={capped:14.4f}  kernel={kernel:14.4f}")

print()
print("oscillatory regime (rho < n+2): determinant via the angle formula")
n, rho = 6, 2.4
a = 1.0 / determinant_radius(n, rho).value
for k in (0, 2, 4, 6):
    closed = oscillatory_closed_form(k, n, rho)
    rec = kernel_det(k, a, rho)
    print(f"  k={k}: sine formula {closed:14.6f}   recurrence {rec:14.6f}")

print()
print("positive-discriminant regime (rho > n+2), n = 4, rho = 8")
n, rho = 4, 8.0
a = 1.0 / determinant_radius(n, rho).value
scale = a * (rho - 1.0)
l1, l2 = recurrence_roots(a, rho)
seq = kernel_det_state(n, a, rho).values
normalized = [v / scale ** k for k, v in enumerate(seq)]
n1, n2 = l1.real / scale, l2.real / scale
print(f"  raw D_k:                    {[f'{v:.4g}' for v in seq]}")
print(f"  raw roots:                  {l1.real:.4f}, {l2.real:.4f}  (both > 1)")
print(f"  D_k/(a(rho-1))^k:           {[f'{v:.4g}' for v in normalized]}")
print(f"  normalized roots:           {n1:.4f}, {n2:.4f}  (product {n1 * n2:.12f})")
# hyperbolic counterpart of the sine formula: cosh t = alpha / (2 a (rho-1))
alpha, _ = coefficients(a, rho)
t = math.acosh(alpha / (2.0 * scale))
hyper = [rho * math.sinh((n - k) * t) / math.sinh(n * t) for k in range(n + 1)]
print(f"  rho sinh((n-k)t)/sinh(nt):  {[f'{v:.4g}' for v in hyper]}")
print("  the raw sequence rises because every term carries (a(rho-1))^k; the")
print("  normalized sequence decreases strictly to 0 at the top index, which is")
print("  what the verify battery checks (c08-*).")

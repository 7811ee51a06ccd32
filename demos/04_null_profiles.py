"""Null-space structure of the normalized shift's kernel on the unit circle.

The kernel of the radius-normalized shift is singular along the whole unit
circle with one-dimensional null space C (v0, z v1, ..., z^n vn).  The
coefficients are antisymmetric, v_k = -v_{n-k}; in odd dimension the middle
coordinate vanishes exactly and everything else is nonzero.  The profile
comes in closed form from the angle of the radius system.  These profiles
drive everything downstream: orbit predicates, membership conditions, and
Harnack-part verdicts.
"""

import numpy as np

from rho_toolkit import (membership_necessary_conditions, normalized_shift,
                         null_profile, rotation_family_check)


def angle(p):
    """The radius-system angle phi the profile was read from: v_k is
    proportional to sin((n - 2k) phi / 2).  There is no real angle at n = 1
    (v = (1, -1)) or from rho = n + 2 on (phi = 0, then sinh profiles)."""
    return "none" if p.radius.omega is None else f"{p.radius.omega:.4f}"


print("profiles at rho = 2 (coordinates are real after phase fixing):")
for n in (1, 2, 3, 4, 7, 8):
    p = null_profile(n, 2.0)
    coords = "  ".join(f"{x.real:+.4f}" for x in p.v)
    print(f"  n={n:2d} (dim {n + 1}):  {coords}")
    print(f"        phi {angle(p)}, antisymmetry residual "
          f"{p.antisymmetry_residual:.1e}, support {list(p.support)}")

print()
print("the profile varies with rho but keeps its shape (n = 5):")
for rho in (1.2, 2.0, 5.0, 9.0):
    p = null_profile(5, rho)
    coords = "  ".join(f"{x.real:+.4f}" for x in p.v)
    print(f"  rho={rho:4.1f}:  {coords}   phi {angle(p)}")

print()
print("rotation family: the null space at z, extracted by eigh, is")
print("diag(1, z, ..., z^n) times the closed-form profile; worst principal-angle")
print("residual over 16 circle points:")
roots = np.exp(2j * np.pi * np.arange(16) / 16)
for n, rho in ((2, 2.0), (5, 1.5), (8, 3.0)):
    resid = rotation_family_check(n, rho, roots)
    print(f"  n={n}, rho={rho}: {resid:.2e}")

print()
print("necessary membership conditions for the shift itself:")
report = membership_necessary_conditions(normalized_shift(4, 2.0))
print(f"  first column zero: {report.first_column_zero}   "
      f"last row zero: {report.last_row_zero}   corner zero: {report.corner_zero}")

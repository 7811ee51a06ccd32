"""The operatorial kernel and class membership.

K_z(T) = (I - conj(z) T)^-1 + (I - z T*)^-1 + (rho - 2) I is Hermitian and
its positivity over the open unit disc characterizes membership of T in the
rho-contraction class, that is, w_rho(T) <= 1.  For shifts the kernel
spectrum depends only on |z|, so the binding constraint sits on the boundary
circle; the radius-normalized shift is the exact boundary case (smallest
kernel eigenvalue 0 at |z| = 1).  The membership test reads w_rho off the
level-set radius and reports the circle point where it is attained.
"""

import numpy as np

from rho_toolkit import (is_rho_contraction, make_shift, normalized_shift,
                         rho_kernel)

rho = 2.5
n = 3
s = normalized_shift(n, rho)
print(f"radius-normalized shift, n={n}, rho={rho}: weight = {s[0, 1].real:.8f}")
print()
print("smallest kernel eigenvalue along the radius (angle irrelevant):")
for r in (0.2, 0.5, 0.8, 0.95, 0.999, 1.0):
    ev = rho_kernel(s, r, rho)
    print(f"  |z| = {r:5.3f}:  min eig = {ev.min_eigenvalue:12.8f}")

print()
print("rotation covariance: spectra at r*e^{i theta} match the spectrum at z=r")
z1 = 0.7 * np.exp(1.1j)
spec_rot = np.linalg.eigvalsh(rho_kernel(s, z1, rho).matrix)
spec_rad = np.linalg.eigvalsh(rho_kernel(s, 0.7, rho).matrix)
print(f"  max spectral gap between the two: {np.max(np.abs(spec_rot - spec_rad)):.2e}")

print()
print("membership tests (w_rho <= 1 + tol):")


def show(label, t):
    report = is_rho_contraction(t, rho)
    res = report.radius
    witness = res.stats.get("witness")
    where = "" if witness is None else f" at z = {witness:.4f}"
    print(f"  {label:<23s}member={bool(report)!s:<5s}  "
          f"w_rho = {res.value:.10f} ({res.method}){where}")


show("normalized shift:", s)
show("oversized 2x2 shift:", make_shift(1, rho + 0.1))
show("zero matrix:", np.zeros((4, 4)))  # kernel is rho*I everywhere
# unit-circle spectrum: a normal matrix's radius is its spectral radius
show("diagonal unitary:", np.diag([np.exp(0.4j), np.exp(-0.9j)]))
# a unit-circle eigenvalue with a small off-diagonal part lies just outside
show("rotation + 1e-2 tail:", np.array([[np.exp(0.3j), 1e-2], [0.0, 0.0]]))

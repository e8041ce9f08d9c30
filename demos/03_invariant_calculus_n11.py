"""Invariant calculus on the Aloff-Wallach space N^{1,1} = SU(3)/U(1).

All tensor calculus reduces to linear algebra on invariant forms: the
structure constants of su(3) give the Chevalley-Eilenberg differential,
Lie derivatives follow from Cartan's formula, and the isotropy-invariant
form bases are finite-dimensional.  The invariant structures compatible
with a smooth degeneration form the four-parameter family (a, b, c,
theta), and the fiber generator determines the smoothness constant that
decides whether the flow extends across the singular orbit.
"""

import numpy as np

from hitchinflow import (
    classify_pair,
    invariant_basis,
    lie_derivative,
    pi_project,
    space,
    smoothness_check,
)
from hitchinflow.flow import n11_problem
from hitchinflow.forms import restrict, wedge
from hitchinflow.homogeneous import InvariantForm

np.set_printoptions(precision=3, suppress=True)

sp = space("n11")
print("=" * 70)
print("1. su(3) structure constants (from the defining representation)")
print("=" * 70)
c = np.asarray(sp.algebra.c, dtype=float)
print("[e1,e2] =", c[:, 0, 1], " (4 e7)")
print("[e3,e4] =", c[:, 2, 3], " (2 e7 + e8)")
print("[e5,e6] =", c[:, 4, 5], " (-2 e7 + e8)")
print("Jacobi residual:", sp.algebra.jacobi_residual())

print()
print("=" * 70)
print("2. Invariant form bases")
print("=" * 70)
for k in (1, 2, 3):
    basis = invariant_basis(sp, k)
    print(f"degree {k}: {len(basis)} invariant forms")
print("invariant 2-forms:", [str(b.form) for b in invariant_basis(sp, 2)][:4], "...")

print()
print("=" * 70)
print("3. The family of candidate initial structures")
print("=" * 70)
p = n11_problem(a=1.2, b=0.9, c_param=1.1, theta=0.25)
om6 = restrict(p.omega0, p.dist_axes)
rho6 = restrict(p.rho0, p.dist_axes)
cls = classify_pair(om6, rho6)
print("classification:", cls.tag.value, " metric diag:", np.diag(np.asarray(cls.metric.matrix, float)))
dom = sp.d(p.omega0)
print("d omega0 ^ omega0 = 0 for every member:", wedge(dom, p.omega0).max_abs() < 1e-12)
print("pi projection strips the fiber part of d rho0:",
      pi_project(sp.d(p.rho0), 6).max_abs() < 1e-12)

print()
print("=" * 70)
print("4. Lie derivatives and the smoothness constant")
print("=" * 70)
lrho = lie_derivative(6, InvariantForm(p.rho0, sp)).form
print("L_{e7} omega0 = 0:", lie_derivative(6, InvariantForm(p.omega0, sp)).form.max_abs() == 0.0)
print("L_{e7} rho0 is proportional to J*rho0 with constant:")
for scale, label in ((1.0, "primitive fiber e7"), (0.5, "squared bundle e7/2"), (-0.5, "squared, flipped")):
    sm = smoothness_check(sp, p.omega0, p.rho0, 6, scale)
    print(f"  {label:24s}: c = {sm.c:+.1f}, smooth extension: {sm.ok}")
print()
print("Only |c| = 1 admits a smooth structure across the zero section,")
print("so the flow runs on the squared bundle.")

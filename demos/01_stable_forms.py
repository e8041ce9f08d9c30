"""Stable forms on R^6 and their associated structures.

A 3-form rho on R^6 is stable when its GL(6)-orbit is open; stability
makes an almost (para-)complex structure J and, together with a
compatible 2-form omega, a metric canonically available.  This script
walks through the three model structures and the operations around them.
"""

import numpy as np

from hitchinflow import (
    assoc_J,
    assoc_metric,
    classify_pair,
    iota,
    k_endomorphism,
    lambda_invariant,
    model_pair,
    theta_deform,
    wedge,
)

np.set_printoptions(precision=3, suppress=True)

print("=" * 70)
print("1. The model pairs and their quartic invariant")
print("=" * 70)
for name in ("su3", "su12", "sl3r"):
    omega, rho = model_pair(name)
    lam = lambda_invariant(rho)
    print(f"{name:>5}: lambda = {lam:+.1f}  "
          f"({'complex' if lam < 0 else 'para-complex'} orbit)")

print()
print("The endomorphism K(v) e^1..6 = (v . rho) ^ rho, normalized to J:")
_, rho = model_pair("su3")
K = k_endomorphism(rho)
J = assoc_J(rho)
print("K e1 =", K[:, 0], " -> J e1 =", J[:, 0], " (the standard complex structure)")
print("J^2 = -Id:", np.allclose(J @ J, -np.eye(6)))

print()
print("=" * 70)
print("2. Associated metrics and classification")
print("=" * 70)
for name in ("su3", "su12", "sl3r"):
    omega, rho = model_pair(name)
    g = assoc_metric(omega, rho)
    cls = classify_pair(omega, rho)
    print(f"{name:>5}: signature {cls.signature},  diag(g) = {np.diag(np.asarray(g.matrix, float))}")

print()
print("Classification checks compatibility and normalization; a rescaled")
print("3-form breaks the normalization J*rho ^ rho = (2/3) omega^3:")
omega, rho = model_pair("su3")
bad = classify_pair(omega, 2.0 * rho)
print("classify(omega, 2 rho):", bad.tag.value, "--", bad.diagnostics)

print()
print("=" * 70)
print("3. The theta family: same omega, same metric, rotated 3-form")
print("=" * 70)
omega, rho = model_pair("su3")
for theta in (0.0, 0.4, 2 * np.pi / 3):
    _, rho_t = theta_deform(omega, rho, theta)
    cls = classify_pair(omega, rho_t)
    print(f"theta = {theta:5.3f}: class {cls.tag.value}, "
          f"metric still Euclidean: {np.allclose(np.asarray(cls.metric.matrix, float), np.eye(6))}")

print()
print("=" * 70)
print("4. Quadratic inverses used by the flow")
print("=" * 70)
sigma = 0.5 * wedge(omega, omega)
print("iota(omega^2/2) recovers omega:",
      np.allclose(iota(sigma).coeffs, omega.coeffs))
rng = np.random.default_rng(0)
from hitchinflow import solve_wedge_omega
from hitchinflow.forms import KForm

beta = KForm(6, 2, rng.normal(size=15))
tau = wedge(beta, omega)
print("solve_wedge_omega round trip:",
      np.allclose(solve_wedge_omega(omega, tau).coeffs, beta.coeffs))

"""G2 structures on R^7 and Spin(7) structures on R^8.

phi = omega ^ e7 + rho is stable exactly when (omega, rho) is one of the
six-dimensional structures; its metric, volume and dual 4-form follow
from the cubic assembly B(v,w) e^1..7 = (1/6)(v.phi)^(w.phi)^phi.  The
8-dimensional form Phi = e8 ^ phi + *phi has volume (1/14) Phi^Phi and
is self-dual.  The same Phi can be assembled from line-bundle split data
(f, omega, rho) with omega and rho on the distribution R^6, the fiber
e_phi = e7 and the radial direction e_r = e8, which is how the flow
consumes it.
"""

import numpy as np

from hitchinflow import (
    build_Phi,
    bundle_Phi,
    interior,
    model_pair,
    model_seven,
    wedge,
)
from hitchinflow.forms import KForm, embed

np.set_printoptions(precision=3, suppress=True)

print("=" * 70)
print("1. The three seven-dimensional models")
print("=" * 70)
for name in ("su3", "su12", "sl3r"):
    s = model_seven(name)
    g = np.asarray(s.g7.matrix, float)
    print(f"{name:>5}: class {s.klass.value:7s} signature {s.g7.signature()}, "
          f"vol7 = {float(s.vol7.coeffs[0]):+.0f} e^1..7, g(e7,e7) = {g[6,6]:+.0f}")

print()
print("The dual 4-form splits as +-(e7 ^ J*rho + omega^2/2):")
s = model_seven("su3")
print("*phi(su3) =", s.star_phi)

print()
print("=" * 70)
print("2. Eight dimensions: Phi = e8 ^ phi + *phi")
print("=" * 70)
for name in ("su3", "su12", "sl3r"):
    s = model_seven(name)
    eight = build_Phi(s)
    print(f"{name:>5}: class {eight.klass.value:8s} vol8 = (1/14) Phi^Phi = "
          f"{float(eight.vol8.coeffs[0]):+.0f} e^1..8")
e8 = np.zeros(8)
e8[7] = 1.0
eight = build_Phi(model_seven("su3"))
phi8 = embed(model_seven("su3").phi, 8)
print("e8 . Phi recovers phi:", np.allclose(interior(e8, eight.Phi).coeffs, phi8.coeffs))

print()
print("=" * 70)
print("3. The same form from line-bundle split data")
print("=" * 70)
omega, rho = model_pair("su3")
for f in (1.0, 2.0):
    Phi, g8 = bundle_Phi(f, omega, rho)
    print(f"f = {f}: g8 fiber entry = {g8.matrix[6,6]:.0f}, radial entry = {g8.matrix[7,7]:.0f}, "
          f"signature {g8.signature()}")
# recovering the split data back from Phi
f = 1.5
Phi, _ = bundle_Phi(f, omega, rho)
er = np.zeros(8); er[7] = 1.0
ephi = np.zeros(8); ephi[6] = 1.0
om_rec = (1.0 / f) * interior(ephi, interior(er, Phi))
rho_rec = interior(er, Phi) - f * wedge(KForm.basis(8, [6]), embed(omega, 8))
print("omega recovered from Phi:", np.allclose(om_rec.coeffs, embed(omega, 8).coeffs))
print("rho recovered from Phi:  ", np.allclose(rho_rec.coeffs, embed(rho, 8).coeffs))

print()
print("Split-signature case: an su(1,2) base gives a (4,4) metric:")
om12, rho12 = model_pair("su12")
_, g8 = bundle_Phi(1.0, om12, rho12)
print("signature:", g8.signature())

"""7-dimensional G2/G2* structures and 8-dimensional Spin(7)/Spin0(3,4)
structures built from stable forms.

A stable 3-form phi on R^7 determines a bilinear form through

    B(v, w) e^{1..7} = (1/6) (v . phi) ^ (w . phi) ^ phi

(the sign is fixed by requiring the standard compact model to have the
Euclidean metric together with the positively oriented volume, with the
contraction acting in the first slot) and the associated metric and
volume are recovered by the normalization
g7 = B det(B)^{-1/9}, vol7 = det(B)^{1/9} e^{1..7} (signed ninth root);
the exponent is the unique one scaling correctly under rescalings of phi.
B is computed once, for floats and Fractions alike, as C M C^T / 6 with
C[i] = e_i . phi and M[a, b] = e^a ^ e^b ^ phi on e^{1..7}, both read off
the ``forms`` product tensors.

The associated 4-form of an 8-dimensional structure Phi = e8 ^ phi + *phi
has volume vol8 := (1/14) Phi ^ Phi = e8 ^ vol7.  Recognition of
8-dimensional structures is constructive only: they are built from a
SevenStructure or from bundle-split data, never classified from a raw
4-form.  The bundle-split assembly uses the one frame of the line-bundle
construction: the distribution on axes 1..6, the fiber e_phi = e7 and
the radial direction e_r = e8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg, stable
from .errors import NonpositiveF, UnstableForm
from .forms import (
    KForm,
    SymBilinear,
    contract,
    embed,
    hodge,
    interior_tensor,
    pullback,
    volume_form,
    wedge,
    wedge_tensor,
)

__all__ = [
    "SevenClass",
    "EightClass",
    "SevenStructure",
    "EightStructure",
    "build_phi",
    "metric_vol_from_phi",
    "seven_structure",
    "solve_dstar",
    "assoc_4form",
    "build_Phi",
    "bundle_Phi",
    "model_phi",
    "model_seven",
]


class SevenClass(Enum):
    G2 = "G2"
    G2_STAR = "G2star"
    NOT_STABLE = "NotStable"


class EightClass(Enum):
    SPIN7 = "Spin7"
    SPIN034 = "Spin034"


@dataclass(frozen=True)
class SevenStructure:
    phi: KForm
    g7: SymBilinear | None
    vol7: KForm | None
    star_phi: KForm | None
    klass: SevenClass

    @property
    def ok(self) -> bool:
        return self.klass is not SevenClass.NOT_STABLE


@dataclass(frozen=True)
class EightStructure:
    Phi: KForm
    vol8: KForm
    klass: EightClass


_SEVEN_CLASS = {(7, 0): SevenClass.G2, (3, 4): SevenClass.G2_STAR}


def metric_vol_from_phi(phi: KForm) -> tuple[SymBilinear | None, KForm | None, SevenClass]:
    """Associated metric, volume and class of a 3-form on R^7: G2 where g7
    has signature (7, 0) and G2* at (3, 4).  g7's signature alone decides
    stability (``linalg.signature``'s eigenvalue floor in floats); (None,
    None, NOT_STABLE) otherwise, or where det B, whose ninth root g7 and
    vol7 take, is 0 or not finite."""
    if phi.dim != 7 or phi.degree != 3:
        raise ValueError("expected a 3-form on R^7")
    exact = phi.exact
    # B = C M C^T / 6 with C[i] = e_i . phi and M[a, b] = e^a ^ e^b ^ phi
    C = contract(interior_tensor(7, 3), phi.coeffs)
    p4 = contract(wedge_tensor(7, 4, 3)[0], phi.coeffs)  # 4-forms ^ phi on e^{1..7}
    M = contract(wedge_tensor(7, 2, 2).transpose(1, 2, 0), p4)
    if exact:  # B = Bi / den in ints: one Fraction per entry of B and of g7
        (c, dc), (m, dm) = linalg.scale_to_int(C), linalg.scale_to_int(M)
        Bi = c @ m @ c.T
        Bi, den = Bi + Bi.T, 12 * dc * dm * dc
        B = linalg.divide_ints(Bi, den)
    else:
        B = C @ M @ C.T
        B = (B + B.T) / 12  # symmetric to the last bit in floats
    with np.errstate(over="ignore"):  # refused below
        d = linalg.det(B)
    if not (d != 0 and abs(d) < math.inf):  # nan too
        return None, None, SevenClass.NOT_STABLE
    s9 = linalg.nth_root_signed(d, 9)
    try:
        with np.errstate(over="ignore"):  # SymBilinear refuses an entry beyond float range
            g7 = SymBilinear(
                linalg.divide_ints(Bi * s9.denominator, den * s9.numerator) if exact else B / s9)
        klass = _SEVEN_CLASS[g7.signature()]
    except (ValueError, KeyError):  # degenerate, or another signature
        return None, None, SevenClass.NOT_STABLE
    return g7, volume_form(7, s9, exact=exact), klass


def seven_structure(phi: KForm) -> SevenStructure:
    """Assemble the full SevenStructure (metric, volume, dual 4-form)."""
    g7, vol7, klass = metric_vol_from_phi(phi)
    return SevenStructure(phi, g7, vol7, None if g7 is None else hodge(g7, vol7, phi), klass)


def solve_dstar(s: SevenStructure, beta: KForm) -> KForm:
    """The 3-form xi with D(*) xi = beta for a 4-form beta, where D(*) is
    the derivative of the Hitchin map phi -> *phi at the float structure s.

    D(*) = * A with A = (4/3) pi_1 + pi_7 - pi_27 (Hitchin, "Stable forms
    and special metrics", arXiv:math/0107101; Bryant, "Some remarks on
    G2-structures", arXiv:math/0305124), and ** = 1 on the forms of R^7
    for G2 and G2* alike, so xi = ((7/4) pi_1 + 2 pi_7 - 1) *beta.
    psi = *beta is the 3-form whose star is beta: the star on 3-forms is
    top^T minors(g^-1, 3) vol with top the pairing of 3- and 4-forms, and
    minors(g, 3) is the inverse Gram (Cauchy-Binet), so psi is the pullback
    by g of top beta / vol.  pi_1 psi = (psi ^ *phi)
    / (phi ^ *phi) phi, and pi_7 psi = X . *phi for the X with
    (X . *phi) ^ phi = psi ^ phi, since the other two parts wedge phi to
    zero: the projections take a 7 x 7 solve and no Gram.
    """
    if not s.ok:
        raise UnstableForm("structure is not stable")
    phi, star_phi = s.phi.coeffs, s.star_phi.coeffs
    top = wedge_tensor(7, 3, 4)[0]
    psi = pullback(s.g7.matrix, KForm(7, 3, top @ beta.coeffs)).coeffs / s.vol7.coeffs[0]
    pi1 = (psi @ top @ star_phi) / (phi @ top @ star_phi) * phi
    wedge_phi = contract(wedge_tensor(7, 3, 3), phi)  # a -> a ^ phi on 3-forms
    a7 = contract(interior_tensor(7, 4).transpose(1, 0, 2), star_phi)  # e_c . *phi
    pi7 = a7 @ np.linalg.solve(wedge_phi @ a7, wedge_phi @ psi)
    return KForm(7, 3, 1.75 * pi1 + 2.0 * pi7 - psi)


def build_phi(omega: KForm, rho: KForm, eta: KForm) -> SevenStructure:
    """phi = omega ^ eta + rho on R^7.

    omega and rho may be given on R^6 (embedded into the first six axes)
    or directly on R^7; eta must be a 1-form on R^7.
    """
    if eta.dim != 7 or eta.degree != 1:
        raise ValueError("eta must be a 1-form on R^7")
    if eta.is_zero():
        raise ValueError("eta vanishes")
    if omega.dim == 6:
        omega = embed(omega, 7)
    if rho.dim == 6:
        rho = embed(rho, 7)
    phi = wedge(omega, eta) + rho
    s = seven_structure(phi)
    if not s.ok:
        raise UnstableForm("omega ^ eta + rho is not a stable 3-form")
    return s


def assoc_4form(s: SevenStructure) -> KForm:
    """The dual 4-form *phi of a seven-dimensional structure."""
    if not s.ok:
        raise UnstableForm("structure is not stable")
    return s.star_phi


def build_Phi(s: SevenStructure) -> EightStructure:
    """Phi = e8 ^ phi + *phi with vol8 = (1/14) Phi ^ Phi."""
    if not s.ok:
        raise UnstableForm("structure is not stable")
    exact = s.phi.exact
    e8 = KForm.basis(8, [7], exact=exact)
    Phi = wedge(e8, embed(s.phi, 8)) + embed(s.star_phi, 8)
    vol8 = wedge(Phi, Phi) / 14
    if vol8.is_zero():
        raise UnstableForm("Phi ^ Phi vanishes")
    klass = EightClass.SPIN7 if s.klass is SevenClass.G2 else EightClass.SPIN034
    return EightStructure(Phi, vol8, klass)


def bundle_Phi(f: float, omega: KForm, rho: KForm) -> tuple[KForm, SymBilinear]:
    """The 8-dimensional structure form and metric of split data (f, omega,
    rho) on the line-bundle frame: omega and rho on the distribution
    (axes 1..6), e_phi = e7 the fiber of length f > 0, e_r = e8 radial.

    Phi = omega^2/2 + f e^phi ^ J*rho + e^r ^ rho + f e^r ^ e^phi ^ omega,
    g8  = g6 + f^2 e^phi (x) e^phi + e^r (x) e^r.
    """
    if f <= 0:
        raise NonpositiveF(f"fiber length must be positive, got {f}")
    if omega.dim != 6 or rho.dim != 6:
        raise ValueError("split data must live on R^6")
    cls = stable.classify_pair(omega, rho)
    if cls.tag not in (stable.StructureClass.SU3, stable.StructureClass.SU12):
        raise UnstableForm(f"split data does not define a structure: {cls.diagnostics}")
    exact = omega.exact
    om8, rho8, jrho8 = (embed(x, 8) for x in (omega, rho, cls.jrho))
    e_phi, e_r = KForm.basis(8, [6], exact=exact), KForm.basis(8, [7], exact=exact)
    Phi = (
        wedge(om8, om8) / 2
        + f * wedge(e_phi, jrho8)
        + wedge(e_r, rho8)
        + f * wedge(wedge(e_r, e_phi), om8)
    )
    g6 = cls.metric.matrix
    g8 = np.zeros((8, 8), dtype=g6.dtype)
    g8[:6, :6] = g6
    g8[6, 6], g8[7, 7] = f * f, 1
    return Phi, SymBilinear(g8)


# -- convenience model constructors ------------------------------------
def model_phi(name: str, exact: bool = False) -> KForm:
    """phi_G2 ('su3'), phi_{G2*,i} ('su12') or phi_{G2*,ii} ('sl3r')."""
    om, rho = stable.model_pair(name, exact=exact)
    e7 = KForm.basis(7, [6], exact=exact)
    return wedge(embed(om, 7), e7) + embed(rho, 7)


def model_seven(name: str, exact: bool = False) -> SevenStructure:
    return seven_structure(model_phi(name, exact=exact))

"""Stable-form machinery on 6-dimensional spaces.

A stable 3-form rho determines an endomorphism K via

    K(v) . vol_ref = (v . rho) ^ rho

under the isomorphism Lambda^5 V* ~ V (x) Lambda^6 V*.  Its normalized
version J = K / sqrt(|lambda|), lambda = tr(K^2)/6, squares to -Id on the
complex-type orbit (lambda < 0) and +Id on the para-complex orbit
(lambda > 0).  Together with a compatible 2-form omega this produces the
associated metric g(v, w) solving omega(v, w) = g(v, J w).

Sign conventions: K (hence J) is fixed by the reference volume, so an
orientation-reversing change of frame flips J.  Operations on *pairs*
(omega, rho) resolve the resulting Z_2 ambiguity through the
normalization, picking the J with J*rho ^ rho a positive multiple of
(2/3) omega^3; this is the choice under which the standard model values
hold on both orientation components of the orbit, with metric signature
in {(6,0), (2,4), (3,3)}.

One core serves floats and Fractions alike.  K is a quadratic
contraction of rho's coefficients with an integer table built from the
``forms`` product tensors.  One sequence takes K to J and lambda, pulls
rho back by J and applies the Z_2 sign rule: ``pair_coeffs`` runs it
with the pullback rho @ minors(J, 3), and ``pair_structure`` and
``assoc_metric`` wrap that for KForms.  ``classify_coeffs`` is the one
structure rule (omega^3 != 0, omega ^ rho = 0, the normalization, and
the metric signature with the sign of lambda, ``signature_class``):
``classify_pair`` runs the sequence once, with one K and one pullback,
and then the rule, and the flow's step check runs the rule on its split.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import DegenerateOmega, UnstableForm
from .forms import (
    KForm,
    SymBilinear,
    contract,
    interior_tensor,
    pullback,
    volume_form,
    wedge,
    wedge_tensor,
)

__all__ = [
    "StructureClass",
    "SixStructureClass",
    "LambdaInvariant",
    "k_endomorphism",
    "lambda_invariant",
    "assoc_J",
    "assoc_metric",
    "pair_structure",
    "pair_coeffs",
    "classify_pair",
    "classify_coeffs",
    "signature_class",
    "theta_deform",
    "iota",
    "solve_wedge_omega",
    "solve_wedge_coeffs",
    "model_pair",
    "theta_rotation_matrix",
]

def model_pair(name: str, exact: bool = False) -> tuple[KForm, KForm]:
    """Model (omega, rho) pairs: 'su3', 'su12', or 'sl3r'."""
    e = lambda *idx: KForm.basis(6, [i - 1 for i in idx], exact=exact)
    if name == "su3":
        return (
            e(1, 2) + e(3, 4) + e(5, 6),
            e(1, 3, 5) - e(1, 4, 6) - e(2, 3, 6) - e(2, 4, 5),
        )
    if name == "su12":
        return (
            -e(1, 2) - e(3, 4) + e(5, 6),
            e(1, 3, 5) - e(1, 4, 6) - e(2, 3, 6) - e(2, 4, 5),
        )
    if name == "sl3r":
        return (
            e(1, 2) + e(3, 4) + e(5, 6),
            e(1, 3, 5) + e(1, 4, 6) + e(2, 3, 6) + e(2, 4, 5),
        )
    raise KeyError(name)


class StructureClass(Enum):
    SU3 = "SU3"
    SU12 = "SU12"
    SL3R = "SL3R"
    NOT_A_STRUCTURE = "NotAStructure"


@dataclass(frozen=True)
class SixStructureClass:
    tag: StructureClass
    diagnostics: str | None = None
    lambda_value: float | Fraction | None = None
    signature: tuple[int, int] | None = None
    metric: SymBilinear | None = None
    J: np.ndarray | None = None
    jrho: KForm | None = None  # J*rho

    @property
    def ok(self) -> bool:
        return self.tag is not StructureClass.NOT_A_STRUCTURE


@dataclass(frozen=True)
class LambdaInvariant:
    """The quartic invariant of a 3-form, relative to a reference volume.

    Scales by s^2 when the reference volume is scaled by 1/s (it lives in
    the square of the top exterior power).
    """

    value: float | Fraction
    reference_volume: KForm


def _vol_coeff(vol: KForm):
    if vol.degree != vol.dim:
        raise ValueError("reference volume must be top degree")
    c = vol.coeffs[0]
    if c == 0:
        raise ValueError("reference volume vanishes")
    return c


@functools.lru_cache(maxsize=None)
def _k_table() -> np.ndarray:
    """Integer tensor T with K[i, j] = sum_ab T[i, j, a, b] rho_a rho_b for
    the reference volume e^{1..6}: the 5-form (e_j . rho) ^ rho, read as a
    vector through e_i . vol."""
    vol = interior_tensor(6, 6)[:, :, 0]
    T = np.einsum("io,oxb,jxa->ijab", vol, wedge_tensor(6, 2, 3), interior_tensor(6, 3))
    T.setflags(write=False)
    return T


def _k_matrix(rho: np.ndarray, v0=1) -> np.ndarray:
    """K from the coefficients of a 3-form on R^6 and the coefficient v0
    of the reference volume."""
    return contract(_k_table(), rho, rho) / v0


def k_endomorphism(rho: KForm, vol_ref: KForm | None = None) -> np.ndarray:
    """Matrix of K with K(v) (x) vol_ref = (v . rho) ^ rho."""
    if rho.dim != 6 or rho.degree != 3:
        raise ValueError("expected a 3-form on a 6-dimensional space")
    return _k_matrix(rho.coeffs, 1 if vol_ref is None else _vol_coeff(vol_ref))


def _lambda(K: np.ndarray):
    return np.trace(K @ K) / 6


def _lambda_and_J(K: np.ndarray, rho: np.ndarray):
    """(lambda, J = K / sqrt|lambda|) for the K of a 3-form with
    coefficients rho.  Raises UnstableForm when |lambda| is at or below
    1e-12 max|rho|^4 (OverflowError, before lambda overflows too, when
    that bound does) or is not finite; an exact K needs a rational
    sqrt|lambda|."""
    floor = 1e-12 * max(float(np.max(np.abs(rho))), 1e-30) ** 4
    lam = _lambda(K)
    if not abs(lam) < math.inf:
        raise UnstableForm(f"lambda = {lam} is not finite")
    if abs(lam) <= floor:
        raise UnstableForm("lambda ~ 0: form is not stable")
    return lam, K / linalg.sqrt_scalar(abs(lam))


def _omega_cube(omega: np.ndarray):
    """Coefficient of omega^3 on e^{1..6} for a 2-form's coefficients."""
    square = contract(wedge_tensor(6, 2, 2), omega) @ omega
    return contract(wedge_tensor(6, 4, 2)[0].T, square) @ omega


def _metric_matrix(omega: np.ndarray, J: np.ndarray, sign: int) -> np.ndarray:
    # omega(v, w) = g(v, J w)  =>  G = Omega J^{-1}, with J^{-1} = sign J
    G = contract(interior_tensor(6, 2), omega) @ (J * sign)
    return (G + G.T) / 2


def _jrho_wedge_rho(jrho: np.ndarray, rho: np.ndarray):
    return contract(wedge_tensor(6, 3, 3)[0].T, jrho) @ rho


def _degenerate(omega: np.ndarray, om3) -> bool:
    """omega^3 = 0 to 1e-12 relative, for omega's coefficients and omega^3."""
    return abs(om3) <= 1e-12 * max(float(np.abs(omega).max()), 1e-30) ** 3


def _oriented(rho: np.ndarray, K: np.ndarray, om3, pull):
    """The K -> J -> pullback -> sign rule sequence from rho's K and
    omega^3: (lambda, J, J*rho = pull(J), J*rho ^ rho), (J, J*rho) flipped
    unless J*rho ^ rho is a positive multiple of omega^3."""
    lam, J = _lambda_and_J(K, rho)
    jrho = pull(J)
    num = _jrho_wedge_rho(jrho, rho)
    if num * om3 < 0:
        J, jrho, num = -J, -jrho, -num
    return lam, J, jrho, num


_SIX_CLASS = {(6, 0): StructureClass.SU3, (2, 4): StructureClass.SU12, (3, 3): StructureClass.SL3R}


def signature_class(signature: tuple[int, int], sign: int) -> StructureClass:
    """The class of a pair from the signature of its metric and the sign
    of lambda: SU3 at (6,0) and SU12 at (2,4) with lambda < 0, SL3R at
    (3,3) with lambda > 0, and NOT_A_STRUCTURE otherwise."""
    tag = _SIX_CLASS.get(signature, StructureClass.NOT_A_STRUCTURE)
    return tag if (tag is StructureClass.SL3R) == (sign > 0) else StructureClass.NOT_A_STRUCTURE


def classify_coeffs(omega: np.ndarray, rho: np.ndarray, J, sign: int, jrho):
    """The six-dimensional structure rule on the coefficients (floats or
    Fractions) of a 2-form and a 3-form on R^6, given J, the sign of lambda
    (0 when rho is not stable) and J*rho, both None when irrational (an
    exact K with no rational sqrt|lambda|).  In this order: omega^3 != 0
    (1e-12 relative), rho stable, omega ^ rho = 0 and J*rho ^ rho =
    (2/3) omega^3 (1e-10 relative), then ``signature_class`` of the metric
    G with omega(v, w) = g(v, J w).  Returns (tag, reason, signature, G):
    reason None for a structure, signature and G None when not computed."""
    fail = StructureClass.NOT_A_STRUCTURE
    om3 = _omega_cube(omega)
    if _degenerate(omega, om3):
        return fail, "omega is degenerate (omega^3 = 0)", None, None
    if not sign:
        return fail, "rho is not stable (lambda = 0)", None, None
    scale = max(float(np.abs(omega).max()), 1e-30) * max(float(np.abs(rho).max()), 1e-30)
    if float(np.abs(contract(wedge_tensor(6, 2, 3), rho) @ omega).max()) > 1e-10 * scale:
        return fail, "omega ^ rho != 0", None, None
    # an irrational J*rho has J*rho ^ rho = q / |lambda|^(3/2), q rational,
    # which is never the rational (2/3) omega^3
    num = None if jrho is None else _jrho_wedge_rho(jrho, rho)
    # a float times a Fraction is the same float but costs about 7 us
    two_thirds = Fraction(2, 3) if isinstance(om3, Fraction) else 2.0 / 3.0
    if num is None or abs(num - om3 * two_thirds) > 1e-10 * max(abs(num), abs(om3), 1e-30):
        return fail, "normalization J*rho ^ rho != (2/3) omega^3", None, None
    G = _metric_matrix(omega, J, sign)
    try:
        sig = linalg.signature(G)
    except ValueError:
        return fail, "associated metric is degenerate", None, None
    tag = signature_class(sig, sign)
    return tag, (f"unexpected signature {sig}" if tag is fail else None), sig, G


def lambda_invariant(rho: KForm, vol_ref: KForm | None = None) -> LambdaInvariant:
    """Quartic orbit invariant lambda = tr(K^2)/6.

    Negative on the complex-type orbit, positive on the para-complex
    orbit, zero exactly on unstable forms.
    """
    vol = vol_ref if vol_ref is not None else volume_form(6, 1, exact=rho.exact)
    return LambdaInvariant(_lambda(k_endomorphism(rho, vol)), vol)


def assoc_J(rho: KForm, vol_ref: KForm | None = None) -> np.ndarray:
    """Normalized endomorphism J = K/sqrt(|lambda|).

    J^2 = -Id on the complex orbit, +Id on the para-complex orbit.
    Invariant under positive rescaling of vol_ref; flips sign under
    orientation reversal.
    """
    return _lambda_and_J(k_endomorphism(rho, vol_ref), rho.coeffs)[1]


def pair_structure(omega: KForm, rho: KForm):
    """(J, g, sign, J*rho) of a pair: J with the Z_2 sign ambiguity
    resolved by the normalization, so that J*rho ^ rho is a positive
    multiple of (2/3) omega^3; g the metric with omega(v,w) = g(v, Jw);
    sign the sign of lambda (J^2 = sign Id); and J*rho, the pullback the
    sign test needs.  On valid pairs this J is the unique choice whose
    metric signature lies in {(6,0), (2,4), (3,3)}."""
    J, sign, jrho, _ = pair_coeffs(omega.coeffs, rho.coeffs)
    return J, SymBilinear(_metric_matrix(omega.coeffs, J, sign)), sign, KForm(6, 3, jrho)


def pair_coeffs(omega: np.ndarray, rho: np.ndarray):
    """pair_structure in coefficient space: coefficient vectors (floats or
    Fractions) of a 2-form and a 3-form on R^6, no KForm.

    Returns (J, sign, J*rho, nu) with J*rho from the one pullback
    ``rho @ minors(J, 3)`` (the expression ``pullback`` evaluates) and
    nu = (J*rho ^ rho) / ((2/3) omega^3), which is 1 on a normalized pair
    and nan when omega^3 = 0.  Raises UnstableForm as assoc_J does.
    """
    om3 = _omega_cube(omega)
    lam, J, jrho, num = _oriented(rho, _k_matrix(rho), om3, lambda J: rho @ linalg.minors(J, 3))
    nu = num / ((2.0 / 3.0) * om3) if om3 != 0 else math.nan
    return J, (-1 if lam < 0 else 1), jrho, nu


def assoc_metric(omega: KForm, rho: KForm) -> SymBilinear:
    """Metric associated to a pair of stable forms via omega(v,w) = g(v, Jw)."""
    return pair_structure(omega, rho)[1]


def classify_pair(omega: KForm, rho: KForm) -> SixStructureClass:
    """Structure classification of a (2-form, 3-form) pair: one K, one J
    and one pullback J*rho unless omega is degenerate, then the checks of
    ``classify_coeffs``.  Failures are reported in the returned value."""
    om, r = omega.coeffs, rho.coeffs
    K, om3 = k_endomorphism(rho), _omega_cube(om)
    lam, J, jrho = _lambda(K), None, None
    sign = -1 if lam < 0 else 1
    if not _degenerate(om, om3):  # an exact J may need a root that a failing pair lacks
        try:
            J, jrho = _oriented(r, K, om3, lambda J: pullback(J, rho).coeffs)[1:3]
        except UnstableForm:
            sign = 0
        except ValueError:  # exact K, sqrt|lambda| irrational: J stays None
            pass
    tag, why, sig, G = classify_coeffs(om, r, J, sign, jrho)
    if why is not None:
        return SixStructureClass(tag, diagnostics=why, lambda_value=lam, signature=sig)
    metric, jrho = SymBilinear(G), KForm(6, 3, jrho)
    return SixStructureClass(tag, lambda_value=lam, signature=sig, metric=metric, J=J, jrho=jrho)


def theta_deform(omega: KForm, rho: KForm, theta: float) -> tuple[KForm, KForm]:
    """One-parameter family of structures with the same omega and metric.

    Complex orbit: rho^theta = cos(theta) rho + sin(theta) J*rho.
    Para-complex orbit: rho^theta = cosh(theta) rho - sinh(theta) J*rho.
    """
    cls = classify_pair(omega, rho)
    if not cls.ok:
        raise UnstableForm(f"not a structure: {cls.diagnostics}")
    rho_f, jrho_f = rho.to_float(), cls.jrho.to_float()
    if cls.lambda_value < 0:
        new = float(np.cos(theta)) * rho_f + float(np.sin(theta)) * jrho_f
    else:
        new = float(np.cosh(theta)) * rho_f - float(np.sinh(theta)) * jrho_f
    return omega.to_float(), new


def theta_rotation_matrix(theta: float, para: bool = False) -> np.ndarray:
    """Block matrix realizing the theta deformation as a basis change
    (rotation or boost by theta/3 in each of the three planes)."""
    w = theta / 3.0
    m = np.zeros((6, 6))
    if para:
        b = np.array([[np.cosh(w), np.sinh(w)], [np.sinh(w), np.cosh(w)]])
    else:
        b = np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]])
    for i in range(3):
        m[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = b
    return m


# -- the quadratic 4-form inverse ---------------------------------------
def solve_wedge_omega(omega: KForm, tau: KForm) -> KForm:
    """Unique alpha with alpha ^ omega = tau, for nondegenerate omega.

    The map alpha -> alpha ^ omega is a 15 x 15 isomorphism when
    omega^3 != 0.
    """
    if omega.dim != 6 or omega.degree != 2 or tau.degree != 4:
        raise ValueError("expected a 2-form and a 4-form on R^6")
    alpha = solve_wedge_coeffs(omega.to_float().coeffs, tau.to_float().coeffs)
    return KForm(6, 2, alpha)


def solve_wedge_coeffs(omega: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """solve_wedge_omega on float coefficient vectors: alpha with
    alpha ^ omega = tau.  Raises DegenerateOmega when omega^3 = 0 (to
    1e-12 relative) or when the solve leaves a residual above 1e-10
    relative."""
    if _degenerate(omega, _omega_cube(omega)):
        raise DegenerateOmega("omega^3 = 0")
    mat = contract(wedge_tensor(6, 2, 2), omega)  # the matrix of alpha -> alpha ^ omega
    alpha = np.linalg.solve(mat, tau)
    resid = float(np.max(np.abs(mat @ alpha - tau)))
    if resid > 1e-10 * max(float(np.max(np.abs(tau))), 1e-30):
        raise DegenerateOmega("wedge solve residual too large")
    return alpha


def iota(sigma: KForm, sign_hint: KForm | None = None) -> KForm:
    """Inverse of omega -> omega^2/2 on nondegenerate 2-forms.

    Of the two solutions +-omega, returns the one with positive metric
    pairing against sign_hint when given, else the one whose first
    nonzero canonical coefficient is positive.  Newton iteration seeded
    from the dual-bivector inverse; raises UnstableForm if sigma is not
    a half-square.
    """
    if sigma.dim != 6 or sigma.degree != 4:
        raise ValueError("expected a 4-form on R^6")
    sigma = sigma.to_float()
    # the dual bivector: B[i, j] = (e^i ^ e^j ^ sigma) on e^{1..6}, which
    # is -Pf(Omega) Omega^{-1} for sigma = omega^2/2
    I2 = interior_tensor(6, 2)
    B = contract(I2, contract(wedge_tensor(6, 2, 4)[0], sigma.coeffs))
    if abs(np.linalg.det(B)) < 1e-14 * max(sigma.max_abs(), 1e-30) ** 3:
        raise UnstableForm("4-form is not a nondegenerate half-square")
    # the 2-form of the antisymmetric part of B^{-1}
    cand = KForm(6, 2, np.tensordot(np.linalg.inv(B), I2, 2) / 2)
    sq = wedge(cand, cand) * 0.5
    ratio = (sq.coeffs @ sigma.coeffs) / max(sq.coeffs @ sq.coeffs, 1e-300)
    if ratio <= 0:
        raise UnstableForm("4-form is not in the half-square orbit")
    omega = cand * float(np.sqrt(ratio))
    # Newton: residual R(w) = w^2/2 - sigma, derivative dR[a] = a ^ w
    for _ in range(50):
        resid = wedge(omega, omega) * 0.5 - sigma
        if resid.max_abs() <= 1e-12 * max(sigma.max_abs(), 1.0):
            break
        try:
            step = solve_wedge_omega(omega, resid)
        except DegenerateOmega as exc:
            raise UnstableForm("Newton iterate became degenerate") from exc
        omega = omega - step
    else:
        raise UnstableForm("iota Newton iteration did not converge")
    # sign selection
    if sign_hint is not None:
        pair = float(np.dot(omega.coeffs, sign_hint.to_float().coeffs))
        if pair < 0:
            omega = -omega
    else:
        lead = next((c for c in omega.coeffs if abs(c) > 1e-12 * omega.max_abs()), 1.0)
        if lead < 0:
            omega = -omega
    return omega

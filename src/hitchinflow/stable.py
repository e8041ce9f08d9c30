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
    increasing_tuples,
    interior,
    merge_sign,
    pullback,
    tuple_position,
    volume_form,
    wedge,
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
    "theta_deform",
    "iota",
    "solve_wedge_omega",
    "solve_wedge_coeffs",
    "model_pair",
    "theta_rotation_matrix",
]

def _basis6(idx, exact):
    return KForm.basis(6, [i - 1 for i in idx], exact=exact)


def model_pair(name: str, exact: bool = False) -> tuple[KForm, KForm]:
    """Model (omega, rho) pairs: 'su3', 'su12', or 'sl3r'."""
    e = lambda *idx: _basis6(idx, exact)
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


def _default_vol(rho: KForm) -> KForm:
    return volume_form(rho.dim, 1, exact=rho.exact)


def _vol_coeff(vol: KForm):
    if vol.degree != vol.dim:
        raise ValueError("reference volume must be top degree")
    c = vol.coeffs[0]
    if c == 0:
        raise ValueError("reference volume vanishes")
    return c


@functools.lru_cache(maxsize=None)
def _k_quadratic_tensor() -> np.ndarray:
    """Cached tensor T with K[i, j] = T[i, j, a, b] rho_a rho_b."""
    n = 6
    nt = len(increasing_tuples(n, 3))
    T = np.zeros((n, n, nt, nt))
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = 1.0
        for a in range(nt):
            ra = KForm(n, 3, np.eye(nt)[a])
            ia = interior(ej, ra)
            for b in range(nt):
                rb = KForm(n, 3, np.eye(nt)[b])
                five = wedge(ia, rb)
                for i in range(n):
                    comp = tuple(k for k in range(n) if k != i)
                    T[i, j, a, b] = five.coeffs[tuple_position(n, comp)] * ((-1) ** i)
    return T


def k_endomorphism(rho: KForm, vol_ref: KForm | None = None) -> np.ndarray:
    """Matrix of K with K(v) (x) vol_ref = (v . rho) ^ rho."""
    if rho.dim != 6 or rho.degree != 3:
        raise ValueError("expected a 3-form on a 6-dimensional space")
    vol = vol_ref if vol_ref is not None else _default_vol(rho)
    v0 = _vol_coeff(vol)
    if not rho.exact and not vol.exact:
        return np.einsum("ijab,a,b->ij", _k_quadratic_tensor(), rho.coeffs, rho.coeffs) / v0
    n = 6
    K = np.zeros((n, n), dtype=object)
    # (e_i . vol) has a single coefficient (-1)^i on the complementary tuple
    for j in range(n):
        ej = np.zeros(n, dtype=object)
        ej[j] = Fraction(1)
        five = wedge(interior(ej, rho), rho)
        for i in range(n):
            comp = tuple(k for k in range(n) if k != i)
            K[i, j] = five.coeffs[tuple_position(n, comp)] * ((-1) ** i) / v0
    return K


def lambda_invariant(rho: KForm, vol_ref: KForm | None = None) -> LambdaInvariant:
    """Quartic orbit invariant lambda = tr(K^2)/6.

    Negative on the complex-type orbit, positive on the para-complex
    orbit, zero exactly on unstable forms.
    """
    vol = vol_ref if vol_ref is not None else _default_vol(rho)
    K = k_endomorphism(rho, vol)
    tr = np.trace(K @ K)
    return LambdaInvariant(tr / (Fraction(6) if rho.exact else 6.0), vol)


def _stability_threshold(rho_max_abs: float) -> float:
    return 1e-12 * max(rho_max_abs, 1e-30) ** 4


def assoc_J(rho: KForm, vol_ref: KForm | None = None) -> np.ndarray:
    """Normalized endomorphism J = K/sqrt(|lambda|).

    J^2 = -Id on the complex orbit, +Id on the para-complex orbit.
    Invariant under positive rescaling of vol_ref; flips sign under
    orientation reversal.
    """
    vol = vol_ref if vol_ref is not None else _default_vol(rho)
    K = k_endomorphism(rho, vol)
    lam = np.trace(K @ K) / (Fraction(6) if rho.exact else 6.0)
    if rho.exact:
        if lam == 0:
            raise UnstableForm("lambda = 0: form is not stable")
        root = linalg.exact_sqrt(abs(lam))
    else:
        if abs(lam) <= _stability_threshold(rho.max_abs()):
            raise UnstableForm("lambda ~ 0: form is not stable")
        root = float(np.sqrt(abs(lam)))
    return K / root


def _omega_matrix(omega: KForm) -> np.ndarray:
    n = omega.dim
    m = np.zeros((n, n), dtype=object if omega.exact else float)
    for pos, (i, j) in enumerate(omega.tuples()):
        m[i, j] = omega.coeffs[pos]
        m[j, i] = -omega.coeffs[pos]
    return m


def _metric_from(omega: KForm, J: np.ndarray, lam_sign: int) -> SymBilinear:
    # omega(v, w) = g(v, J w)  =>  G = Omega J^{-1}, with J^2 = lam_sign Id
    Om = _omega_matrix(omega)
    Jinv = J * lam_sign  # J^{-1} = -J (complex) or +J (para-complex)
    return SymBilinear((Om @ Jinv + (Om @ Jinv).T) / 2)


def pair_structure(omega: KForm, rho: KForm, vol_ref: KForm | None = None):
    """(J, g, sign, J*rho) of a pair: J with the Z_2 sign ambiguity
    resolved by the normalization, so that J*rho ^ rho is a positive
    multiple of (2/3) omega^3; g the metric with omega(v,w) = g(v, Jw);
    sign the sign of lambda (J^2 = sign Id); and J*rho, the pullback the
    sign test needs.  On valid pairs this J is the unique choice whose
    metric signature lies in {(6,0), (2,4), (3,3)}."""
    J = assoc_J(rho, vol_ref)
    lam = lambda_invariant(rho, vol_ref).value
    sgn = -1 if lam < 0 else 1
    om3 = wedge(wedge(omega, omega), omega).coeffs[0]
    jrho = pullback(J, rho)
    num = wedge(jrho, rho).coeffs[0]
    if om3 != 0 and num != 0 and (num / om3) < 0:
        J, jrho = -J, -jrho
    g = _metric_from(omega, J, sgn)
    return J, g, sgn, jrho


def pair_coeffs(omega: np.ndarray, rho: np.ndarray):
    """pair_structure in coefficient space: float coefficient vectors of a
    2-form and a 3-form on R^6, reference volume e^{1..6}, no KForm.

    Returns (J, sign, J*rho, nu) with J, sign and J*rho as pair_structure
    gives them (J*rho from the one pullback ``rho @ minors(J, 3)``) and
    nu = (J*rho ^ rho) / ((2/3) omega^3), which is 1 on a normalized pair
    and nan when omega^3 = 0.  Raises UnstableForm as assoc_J does.
    """
    K = (_k_quadratic_tensor().reshape(-1, len(rho)) @ rho).reshape(6, 6, -1) @ rho
    lam = np.trace(K @ K) / 6.0
    if abs(lam) <= _stability_threshold(float(np.max(np.abs(rho)))):
        raise UnstableForm("lambda ~ 0: form is not stable")
    J = K / math.sqrt(abs(lam))
    jrho = rho @ linalg.minors(J, 3)
    om3 = _omega_cube(omega)
    num = jrho @ _top_pairing(3) @ rho
    if om3 != 0 and num != 0 and (num / om3) < 0:
        J, jrho, num = -J, -jrho, -num
    nu = num / ((2.0 / 3.0) * om3) if om3 != 0 else math.nan
    return J, (-1 if lam < 0 else 1), jrho, nu


def assoc_metric(omega: KForm, rho: KForm, vol_ref: KForm | None = None) -> SymBilinear:
    """Metric associated to a pair of stable forms via omega(v,w) = g(v, Jw)."""
    return pair_structure(omega, rho, vol_ref)[1]


def _rel_tol(*forms: KForm) -> float:
    return 1e-10 * max(max(f.max_abs() for f in forms), 1e-30)


def classify_pair(omega: KForm, rho: KForm) -> SixStructureClass:
    """Structure classification of a (2-form, 3-form) pair.

    Checks stability of both forms, omega ^ rho = 0, the normalization
    J*rho ^ rho = (2/3) omega^3, then classifies by metric signature and
    the sign of lambda.  Failures are reported in the returned value.
    """
    fail = lambda why, **kw: SixStructureClass(
        StructureClass.NOT_A_STRUCTURE, diagnostics=why, **kw
    )
    om3 = wedge(wedge(omega, omega), omega)
    om_scale = max(omega.max_abs(), 1e-30) ** 3
    if abs(om3.coeffs[0]) <= 1e-12 * om_scale:
        return fail("omega is degenerate (omega^3 = 0)")
    lam = lambda_invariant(rho).value
    if abs(lam) <= _stability_threshold(rho.max_abs()):
        return fail("rho is not stable (lambda = 0)", lambda_value=lam)
    compat = wedge(omega, rho)
    if compat.max_abs() > _rel_tol(omega) * max(rho.max_abs(), 1e-30):
        return fail("omega ^ rho != 0", lambda_value=lam)
    J, g, sgn, jrho = pair_structure(omega, rho)
    norm_lhs = wedge(jrho, rho)
    scale3 = Fraction(2, 3) if omega.exact else (2.0 / 3.0)
    resid = norm_lhs - om3 * scale3
    if resid.max_abs() > 1e-10 * max(norm_lhs.max_abs(), abs(om3.coeffs[0]), 1e-30):
        return fail(
            "normalization J*rho ^ rho != (2/3) omega^3",
            lambda_value=lam,
        )
    try:
        sig = g.signature()
    except ValueError:
        return fail("associated metric is degenerate", lambda_value=lam)
    if lam < 0 and sig == (6, 0):
        tag = StructureClass.SU3
    elif lam < 0 and sig == (2, 4):
        tag = StructureClass.SU12
    elif lam > 0 and sig == (3, 3):
        tag = StructureClass.SL3R
    else:
        return fail(f"unexpected signature {sig}", lambda_value=lam, signature=sig)
    return SixStructureClass(tag, lambda_value=lam, signature=sig, metric=g, J=J, jrho=jrho)


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
def _dual_bivector(sigma: KForm) -> np.ndarray:
    """Matrix B with B[i,j] = coefficient of the (i,j)-complement in sigma,
    signed; for sigma = omega^2/2 this is -Pf(Omega) Omega^{-1}."""
    n = sigma.dim
    B = np.zeros((n, n), dtype=object if sigma.exact else float)
    for i in range(n):
        for j in range(i + 1, n):
            comp = tuple(k for k in range(n) if k not in (i, j))
            sign, _ = merge_sign((i, j), comp)
            val = sign * sigma.coeffs[tuple_position(n, comp)]
            B[i, j] = val
            B[j, i] = -val
    return B


def _form_from_matrix(m: np.ndarray) -> KForm:
    n = m.shape[0]
    out = KForm.zero(n, 2, exact=m.dtype == object)
    coeffs = out.coeffs.copy()
    for pos, (i, j) in enumerate(increasing_tuples(n, 2)):
        coeffs[pos] = m[i, j]
    return KForm(n, 2, coeffs)


@functools.lru_cache(maxsize=None)
def _wedge2_tensor() -> np.ndarray:
    """W[o, col, a]: coefficient a of omega contributing to row o of the
    matrix column col (the map alpha -> alpha ^ omega on R^6)."""
    W = np.zeros((15, 15, 15))
    for col in range(15):
        basis = KForm.basis(6, increasing_tuples(6, 2)[col])
        for a in range(15):
            W[:, col, a] = wedge(basis, KForm(6, 2, np.eye(15)[a])).coeffs
    return W


@functools.lru_cache(maxsize=None)
def _top_pairing(p: int) -> np.ndarray:
    """P with a ^ b = (a @ P @ b) e^{1..6} for a p-form a and a
    (6-p)-form b on R^6: the merge sign of each complementary pair."""
    ptups = increasing_tuples(6, p)
    P = np.zeros((len(ptups), len(increasing_tuples(6, 6 - p))))
    for i, a in enumerate(ptups):
        comp = tuple(k for k in range(6) if k not in a)
        P[i, tuple_position(6, comp)] = merge_sign(a, comp)[0]
    P.setflags(write=False)
    return P


def _omega_cube(omega: np.ndarray) -> float:
    """Coefficient of omega^3 on e^{1..6} for a 2-form's coefficients."""
    square = (_wedge2_tensor() @ omega) @ omega
    return square @ _top_pairing(4) @ omega


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
    if abs(_omega_cube(omega)) <= 1e-12 * max(float(np.max(np.abs(omega))), 1e-30) ** 3:
        raise DegenerateOmega("omega^3 = 0")
    mat = _wedge2_tensor() @ omega  # the matrix of alpha -> alpha ^ omega
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
    B = _dual_bivector(sigma)
    if abs(np.linalg.det(B)) < 1e-14 * max(sigma.max_abs(), 1e-30) ** 3:
        raise UnstableForm("4-form is not a nondegenerate half-square")
    cand_m = np.linalg.inv(B)
    cand = _form_from_matrix((cand_m - cand_m.T) / 2)
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
